"""Exact permanent computation.

Two independent routes are kept deliberately separate so one can check the
other: a brute-force permutation sum used as the oracle at small n, and
Ryser's inclusion-exclusion formula over column subsets whose row sums are
maintained incrementally in Gray code order, giving O(n * 2^n) work overall.

``permanent_ryser`` has two kernels that return the same value: the
compiled one of _ryser.c, which takes Nijenhuis and Wilf's form of Ryser's
formula over half the subsets, two at a time up to n = 24, and is exact for
2 <= n <= ``KERNEL_LIMIT``, and a Python loop of plain Ryser in
arbitrary-precision ints, which is the fallback and, being built on the
other formula, the oracle. A call of the compiled kernel sums one even range
of Gray-code indices from scratch, and the sum of the ranges mod 2^192 is
exact. Results are Python ints either way (n! passes 2^63 at n = 21).
"""

from __future__ import annotations

import ctypes
import functools
import itertools
from array import array
from typing import Iterator

from . import _native
from .matrix import Matrix

NAIVE_LIMIT = 12
# The largest n permanent_ryser and gray_code_subsets take: the compiled
# kernel's, since above it only the Python loop could run, which would take
# about a day at n = 35 (0.34 s at n = 18, O(n 2^n)). A {0,1} permanent
# counts permutations, so 0 <= perm <= n!; up to this n the kernel's row
# values, of magnitude at most n, multiply without overflow in its SSE2
# lanes and int64 factors (up to n = 24: three in int16, 24^3 < 2^15, six in
# int32 and twelve in int64, 24^12 < 2^56, with 128-bit block sums of at
# most 2^15 terms, 2^15 24^24 < 2^127; above: two in int16, 34^2 < 2^15,
# four in int32 and twelve in int64, 34^12 < 2^62), and its signed 192-bit
# sum holds n! 2^(n-1) < 2^162 (see _ryser.c).
KERNEL_LIMIT = 34


def permanent_naive(m: Matrix) -> int:
    """Permutation-sum permanent, the small-n oracle.

    Counts permutations whose entries are all 1 by depth-first search over
    rows, pruning any branch with a 0 entry. Refuses n > 12 since the search
    is O(n!) in the worst case.
    """
    if m.n > NAIVE_LIMIT:
        raise ValueError(
            f"permanent_naive is limited to n <= {NAIVE_LIMIT} (O(n!) growth), got n = {m.n}"
        )
    n = m.n
    masks = m.row_masks()

    # The DFS visits exactly the permutations with product 1, so the count
    # equals the full permutation sum for a {0,1} matrix.
    def count(row: int, used: int) -> int:
        if row == n:
            return 1
        total = 0
        free = masks[row] & ~used
        while free:
            bit = free & -free
            total += count(row + 1, used | bit)
            free ^= bit
        return total

    return count(0, 0)


def gray_code_subsets(n: int) -> Iterator[tuple[int, int, int]]:
    """All 2^n - 1 nonempty subsets of [0, n) in reflected Gray code order.

    Yields (mask, flipped_index, direction) where direction is +1 when the
    flipped bit was set and -1 when it was cleared. Consecutive masks differ
    in exactly one bit, and the first mask is {0}.
    """
    if not 1 <= n <= KERNEL_LIMIT:
        raise ValueError(f"n must be in [1, {KERNEL_LIMIT}], got {n}")
    prev = 0
    for k in range(1, 1 << n):
        mask = k ^ (k >> 1)
        changed = mask ^ prev
        flipped = changed.bit_length() - 1
        direction = 1 if mask & changed else -1
        yield mask, flipped, direction
        prev = mask


# Subsets per kernel call, so that control comes back to the interpreter
# (signals, Ctrl-C) between ranges: a range takes 0.012-0.032 s on the
# all-ones matrices at n = 24-34 on a 2-vCPU Xeon. Up to n = 23 a permanent
# is one call.
_RYSER_CHUNK = 1 << 22


@functools.cache
def _ryser_kernel():
    """The compiled ``ryser`` of _ryser.c, or None when it cannot be built or loaded.

    ``ryser(n, cols, start, end, sum)`` writes to ``sum``, three uint64
    words low first, the sum mod 2^192 of the terms of the Gray-code
    indices start to end - 1, for 2 <= n <= ``KERNEL_LIMIT``, ``cols`` the
    column-major entries and even start < end <= 2^(n-1). A call keeps
    nothing, so the ranges of one permanent are independent.
    ``permanent_ryser`` asks for it on every call and runs its Python loop
    on None.
    """
    words = ctypes.POINTER(ctypes.c_uint64)
    return _native.kernel("ryser", ctypes.c_int64, ctypes.c_void_p, ctypes.c_uint64, ctypes.c_uint64, words)


def permanent_ryser(m: Matrix) -> int:
    """Inclusion-exclusion permanent with Gray-coded column updates.

    Walks column subsets in Gray code order, so each transition adds or
    removes a single column from the running row sums (O(n) per subset
    instead of O(n^2)). The sign of each term comes from the subset
    cardinality's parity.

    For 2 <= n <= ``KERNEL_LIMIT`` (34) it runs the compiled kernel of
    _ryser.c when that can be built and loaded. The kernel fixes the last
    column and walks the 2^(n-1) subsets of the others (Nijenhuis and
    Wilf), with doubled row values in int16 lanes. Up to n = 24 it takes
    the subsets two at a time: it multiplies the row values of both in SSE2
    lanes (int16 products of three values, int32 ones of six) down to two
    int64 factors each, sums the terms exactly in 128 bits over blocks of
    at most 2^15 subsets and adds each block sum to a 192-bit sum. Above,
    it multiplies one subset's values down to three int64 factors (int16
    products of two, int32 ones of four) and adds each term in 192 bits.
    Each call sums one range of ``_RYSER_CHUNK`` subsets (fewer at the
    end) from scratch, mod 2^192, and the range sums are added here mod
    2^192 into the signed sum (-1)^(n-1) 2^(n-1) perm. Since
    n! 2^(n-1) < 2^162 for such n, that total is exact even where the sum
    of one range wraps, and the permanent is the total shifted right by
    n - 1 with its sign fixed. At n = 1, or without the kernel, it runs
    plain Ryser as a Python loop over the 2^n - 1 nonempty subsets, in
    arbitrary-precision ints; that loop is also the oracle the kernel is
    tested against. It refuses n > ``KERNEL_LIMIT`` (34) before any work.
    """
    if m.n > KERNEL_LIMIT:
        raise ValueError(
            f"permanent_ryser is limited to n <= {KERNEL_LIMIT} (O(n 2^n) growth), got n = {m.n}"
        )
    kernel = _ryser_kernel() if m.n >= 2 else None
    if kernel is None:
        return _ryser_python(m)
    cols = array("q", itertools.chain.from_iterable(m.columns()))
    words = (ctypes.c_uint64 * 3)()
    subsets = 1 << (m.n - 1)
    total = 0
    for start in range(0, subsets, _RYSER_CHUNK):
        kernel(m.n, _native.address(cols), start, min(start + _RYSER_CHUNK, subsets), words)
        total += words[0] | words[1] << 64 | words[2] << 128
    total = (total + (1 << 191)) % (1 << 192) - (1 << 191)  # as a signed 192-bit integer
    return (total if m.n & 1 else -total) >> (m.n - 1)


def _ryser_python(m: Matrix) -> int:
    """permanent_ryser's Python loop, in arbitrary-precision ints."""
    n = m.n
    cols = m.columns()
    row_sums = [0] * n
    parity = 0  # parity of |subset|; flips once per Gray transition
    total = 0
    for _, flipped, direction in gray_code_subsets(n):
        col = cols[flipped]
        if direction > 0:
            for u in range(n):
                row_sums[u] += col[u]
        else:
            for u in range(n):
                row_sums[u] -= col[u]
        parity ^= 1
        product = 1
        for s in row_sums:
            if s == 0:
                product = 0
                break
            product *= s
        if parity == (n & 1):
            total += product
        else:
            total -= product
    return total
