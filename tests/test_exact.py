import ctypes
import itertools
import math
import random
from array import array

import pytest

from permlab import Matrix, generate_random, parse_matrix, permanent_naive, permanent_ryser
from permlab import _native, exact
from permlab.exact import KERNEL_LIMIT, gray_code_subsets

FIG = parse_matrix("3\n101\n110\n101\n")


def test_naive_known_values():
    assert permanent_naive(FIG) == 2
    identity = Matrix.from_rows([[int(i == j) for j in range(5)] for i in range(5)])
    assert permanent_naive(identity) == 1
    assert permanent_naive(Matrix.from_rows([[1] * 4] * 4)) == 24


def test_naive_guard():
    big = Matrix.from_rows([[1] * 13] * 13)
    with pytest.raises(ValueError, match="n <= 12"):
        permanent_naive(big)


def test_ryser_known_values():
    assert permanent_ryser(FIG) == 2
    assert permanent_ryser(Matrix.from_rows([[1] * 5] * 5)) == 120
    assert permanent_ryser(Matrix.from_rows([[1]])) == 1
    assert permanent_ryser(Matrix.from_rows([[0]])) == 0


def test_ryser_matches_naive_randomized(ryser_kernel):
    rng = random.Random(20240817)
    for trial in range(200):
        n = 1 + trial % 8
        ones = rng.randint(0, n * n)
        m = generate_random(n, ones, seed=rng.getrandbits(32))
        assert permanent_ryser(m) == permanent_naive(m)


def test_ryser_matches_naive_exhaustive_tiny(ryser_kernel):
    for n in (1, 2):
        for bits in range(1 << (n * n)):
            rows = tuple(
                tuple((bits >> (u * n + v)) & 1 for v in range(n)) for u in range(n)
            )
            m = Matrix(n, rows)
            assert permanent_ryser(m) == permanent_naive(m)


def test_permanent_in_factorial_range(ryser_kernel):
    for seed in range(40):
        n = 1 + seed % 7
        m = generate_random(n, (seed * 3) % (n * n + 1), seed=seed)
        value = permanent_ryser(m)
        assert 0 <= value <= math.factorial(n)


def test_permanent_invariant_under_permutations(ryser_kernel):
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 6)
        m = generate_random(n, rng.randint(0, n * n), seed=rng.getrandbits(32))
        reference = permanent_ryser(m)
        rows = list(m.rows)
        rng.shuffle(rows)
        assert permanent_ryser(Matrix.from_rows(rows)) == reference
        cols = list(range(n))
        rng.shuffle(cols)
        permuted = [[row[c] for c in cols] for row in m.rows]
        assert permanent_ryser(Matrix.from_rows(permuted)) == reference


def compiled_ryser():
    if _native.kernel("ryser") is None:
        pytest.skip("the compiled Ryser kernel cannot be built or loaded here")


@pytest.mark.parametrize("num, den", [(1, 4), (1, 2), (7, 8)])
def test_compiled_ryser_matches_python_ryser(num, den):
    # The sizes where the 64-bit row-product groups and the zero-row skip
    # first matter, at densities where most subsets are skipped and where
    # almost none are.
    compiled_ryser()
    rng = random.Random(num * 100 + den)
    for n in range(9, 17):
        for _ in range(2):
            m = generate_random(n, n * n * num // den, seed=rng.getrandbits(32))
            assert permanent_ryser(m) == exact._ryser_python(m)


def test_ryser_is_zero_with_a_zero_row_or_column(ryser_kernel):
    for n in (1, 2, 5, 9):
        for i in (0, n - 1):
            zero_row = [[int(u != i) for v in range(n)] for u in range(n)]
            zero_column = [[int(v != i) for v in range(n)] for u in range(n)]
            assert permanent_ryser(Matrix.from_rows(zero_row)) == 0
            assert permanent_ryser(Matrix.from_rows(zero_column)) == 0


def test_ryser_with_odd_and_even_row_sums(ryser_kernel):
    # The compiled kernel's doubled row value 2 sum_{j in S} a_uj + 2 a_u,n-1 - r_u
    # has the parity of the row sum r_u, so it can reach 0 only in a row with
    # an even sum. Rows all even, all odd, and alternating.
    rng = random.Random(11)
    for n in range(2, 10):
        for parity in ("even", "odd", "mixed"):
            rows = []
            for u in range(n):
                row = [int(rng.random() < 0.6) for _ in range(n)]
                odd = {"even": 0, "odd": 1, "mixed": u % 2}[parity]
                if sum(row) % 2 != odd:
                    row[rng.randrange(n)] ^= 1
                rows.append(row)
            m = Matrix.from_rows(rows)
            assert permanent_ryser(m) == permanent_naive(m)


@pytest.mark.parametrize("n", [21, 22, 29])
def test_compiled_ryser_is_exact_past_64_bits(n):
    # perm of the all-ones matrix is n!, which passes 2^64 at n = 21. At
    # n = 29 the kernel's sum, n! 2^(n-1) in magnitude, first passes 2^127.
    compiled_ryser()
    assert math.factorial(n) > 2**64
    assert permanent_ryser(Matrix.from_rows([[1] * n] * n)) == math.factorial(n)


def test_kernel_limit_is_the_last_n_whose_factorial_fits_128_bits():
    assert math.factorial(KERNEL_LIMIT) < 2**128 <= math.factorial(KERNEL_LIMIT + 1)
    # The bounds of _ryser.c, for row values of magnitude at most n: up to
    # three vectors of eight (n <= 24) the product of three in int16, of six
    # in int32 and of twelve in int64; with four and five (n <= 34) the
    # product of two in int16, of four in int32 and of twelve in int64. And
    # a signed 192-bit sum of n! 2^(n-1) at most.
    assert 24**3 < 2**15 and KERNEL_LIMIT**2 < 2**15
    assert 24**6 < 2**31 and KERNEL_LIMIT**4 < 2**31
    assert 24**12 < 2**62 and KERNEL_LIMIT**12 < 2**62
    assert math.factorial(KERNEL_LIMIT) << (KERNEL_LIMIT - 1) < 2**162
    # Up to n = 24 the two int64 factors of a term, p0 and p1, are each a
    # product of twelve row values, and a 128-bit block sum of at most 2^15
    # terms of at most 24^24 in magnitude does not wrap.
    assert 24**12 < 2**56
    assert 2**15 * 24**24 < 2**127


def test_ryser_runs_the_kernel_at_every_n_from_2_to_the_limit(monkeypatch, swap_kernels):
    calls = []

    # The kernel's sum is (-1)^(n-1) 2^(n-1) perm, mod 2^192. Each range
    # writes a random 192-bit share of it and the last range the rest, so
    # the shares wrap and only their sum mod 2^192 gives perm.
    perm = 5 + (7 << 64)
    total = (-perm << (KERNEL_LIMIT - 1)) % (1 << 192)
    shares = random.Random(3)
    written = 0

    def spy(n, cols, start, end, words):
        nonlocal written
        calls.append((n, start, end))
        share = shares.getrandbits(192) if end < 1 << (n - 1) else (total - written) % (1 << 192)
        written += share
        for i in range(3):
            words[i] = share >> (64 * i) & (1 << 64) - 1

    swap_kernels(ryser=spy)
    monkeypatch.setattr(exact, "_ryser_python", lambda m: "python")
    ones = [[1] * KERNEL_LIMIT] * KERNEL_LIMIT
    assert permanent_ryser(Matrix.from_rows(ones)) == perm
    chunk = exact._RYSER_CHUNK
    subsets = 1 << (KERNEL_LIMIT - 1)
    assert calls == [(KERNEL_LIMIT, end - chunk, end) for end in range(chunk, subsets + 1, chunk)]
    # At every n the kernel takes, its calls cover [0, 2^(n-1)] in order,
    # each from an even start to an even end.
    for n in (2, 3, 8, 23, 24, 25):
        del calls[:]
        permanent_ryser(Matrix.from_rows([[1] * n] * n))
        assert all(call[0] == n for call in calls)
        assert [start for _, start, _ in calls] == [0] + [end for _, _, end in calls[:-1]]
        assert calls[-1][2] == 1 << (n - 1)
        assert all(start % 2 == 0 == end % 2 and start < end for _, start, end in calls)
    # n = 1, whose one subset makes no even range, never reaches it, and n
    # above the limit is refused before either loop.
    del calls[:]
    assert permanent_ryser(Matrix.from_rows([[1]])) == "python"
    with pytest.raises(ValueError, match=rf"limited to n <= {KERNEL_LIMIT} .*, got n = {KERNEL_LIMIT + 1}$"):
        permanent_ryser(Matrix.from_rows([[1] * (KERNEL_LIMIT + 1)] * (KERNEL_LIMIT + 1)))
    assert calls == []


def test_compiled_ryser_splits_permanents_into_kernel_calls(monkeypatch, swap_kernels):
    # Ranges of 16 subsets: every permanent at n = 9..16 takes 16 to 2048
    # kernel calls, each summing its range from scratch.
    compiled_ryser()
    kernel = _native.kernel("ryser", *exact._RYSER_ARGTYPES)
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        kernel(*args)

    swap_kernels(ryser=counted)
    monkeypatch.setattr(exact, "_RYSER_CHUNK", 1 << 4)
    rng = random.Random(5)
    for n in range(9, 17):
        for num, den in ((1, 4), (7, 8)):
            m = generate_random(n, n * n * num // den, seed=rng.getrandbits(32))
            calls = 0
            assert permanent_ryser(m) == exact._ryser_python(m)
            assert calls == 1 << (n - 5)


def kernel_row_values(masks, k):
    """_ryser.c's row values v_u = 2 sum_{j in S} a_uj + 2 a_u,n-1 - r_u for the
    subset S of Gray-code index k, from the rows' bitmasks (``row_masks``)."""
    subset = k ^ (k >> 1) | 1 << (len(masks) - 1)
    return [2 * (mask & subset).bit_count() - mask.bit_count() for mask in masks]


def kernel_sum(masks, start, stop):
    """_ryser.c's sum over the Gray-code indices start to stop - 1, mod 2^192:
    (-1)^k times the product of the row values, term by term in Python ints."""
    total = 0
    for k in range(start, stop):
        total += (-1) ** k * math.prod(kernel_row_values(masks, k))
    return total % (1 << 192)


def run_kernel_range(m, start, stop, stale=0):
    """The compiled kernel's sum over the Gray-code indices start to stop - 1,
    from one call into sum words that held stale before it."""
    kernel = _native.kernel("ryser", *exact._RYSER_ARGTYPES)
    cols = array("q", itertools.chain.from_iterable(m.columns()))
    words = (ctypes.c_uint64 * 3)(*(stale >> (64 * i) & (1 << 64) - 1 for i in range(3)))
    kernel(m.n, _native.address(cols), start, stop, words)
    return words[0] | words[1] << 64 | words[2] << 128


@pytest.mark.parametrize("n", [17, 24, 25, 32, 33, 34])
def test_compiled_ryser_ranges_at_every_vector_count(n):
    # The kernel's row values fill (n + 7) / 8 vectors of eight int16 lanes,
    # and it has one subset loop for each count: n = 17 and 24 take three,
    # 25 and 32 four, 33 and 34 five (n <= 16, one and two, is checked
    # above). 2^12 subsets from k = 0, and from an even k in the second
    # half of the range, whose row values start from those of subset k - 1,
    # into sum words that held a stale sum.
    compiled_ryser()
    rng = random.Random(n)
    count = 1 << 12
    for num, den in ((1, 4), (7, 8)):
        m = generate_random(n, n * n * num // den, seed=rng.getrandbits(32))
        masks = m.row_masks()
        middle = ((1 << (n - 2)) + rng.randrange(1 << (n - 3))) & ~1
        for start in (0, middle):
            stale = rng.getrandbits(192) if start else 0
            total = run_kernel_range(m, start, start + count, stale)
            assert total == kernel_sum(masks, start, start + count)


@pytest.mark.parametrize("n", [2, 8, 9, 16, 20, 27, 34])
def test_compiled_ryser_range_edges(n):
    # The subset loop takes an odd k by adding column 0, and an even one by
    # the Gray-code flip of column ctz(k). Single pairs, short ranges and
    # the last subsets, at one to five vectors, on the all-ones matrix
    # (whose row values are 0 only at even n) and on a dense random one,
    # into sum words that held a stale sum.
    compiled_ryser()
    rng = random.Random(n)
    last = 1 << (n - 1)
    ranges = [(0, 2), (2, 4), (last - 2, last), (0, 8), (2, 10), (2, 8), (4, 10), (last - 6, last)]
    middle = rng.randrange(last // 2, last) & ~1
    ranges += [(middle, middle + 2), (middle, middle + 8), (middle + 2, middle + 8)]
    ranges = [(start, stop) for start, stop in ranges if 0 <= start < stop <= last]
    matrices = [Matrix.from_rows([[1] * n] * n), generate_random(n, n * n * 7 // 8, seed=n)]
    for m in matrices:
        masks = m.row_masks()
        for start, stop in ranges:
            stale = rng.getrandbits(192)
            assert run_kernel_range(m, start, stop, stale) == kernel_sum(masks, start, stop), (start, stop)


@pytest.mark.parametrize("n", [17, 20, 24])
def test_compiled_ryser_folds_block_sums_into_the_total(n):
    # Up to n = 24 the kernel sums its terms in 128-bit blocks of at most
    # 2^15 subsets, ending at multiples of 2^15, and adds each block sum to
    # the 192-bit total with its sign extended. A range of one and a half
    # blocks across a block's end, on a dense random matrix; at n = 24 also
    # two blocks and one pair of the all-ones matrix from k = 0, whose terms
    # reach 22^24 > 2^107 in magnitude.
    compiled_ryser()
    rng = random.Random(n)
    block = 1 << 15
    start = block * rng.randrange((1 << (n - 1)) // block - 1) + block // 2
    stop = start + 3 * block // 2
    cases = [(generate_random(n, n * n * 7 // 8, seed=n), start, stop, rng.getrandbits(192))]
    if n == 24:
        cases.append((Matrix.from_rows([[1] * n] * n), 0, 2 * block + 2, rng.getrandbits(192)))
    for m, start, stop, stale in cases:
        assert run_kernel_range(m, start, stop, stale) == kernel_sum(m.row_masks(), start, stop)


@pytest.mark.parametrize("n", [24, 30, 34])
def test_compiled_ryser_ranges_are_independent(n):
    # A call keeps nothing from the last, so the sums of the pieces of a
    # window, taken in any order, add up mod 2^192 to the window's sum in
    # one call: at three, four and five vectors, 2^13 subsets across the
    # end of a 2^15-subset block (one of pairs' block sums at n = 24), cut
    # at random even places into pieces of 2 subsets up to thousands.
    compiled_ryser()
    rng = random.Random(n)
    m = generate_random(n, n * n * 7 // 8, seed=n)
    count = 1 << 13
    start = (1 << 15) * rng.randrange(1, 1 << (n - 16)) - count // 2
    cuts = sorted({0, 2, count - 2, count, *(2 * rng.randrange(2, count // 2 - 1) for _ in range(5))})
    pieces = [(start + a, start + b) for a, b in zip(cuts, cuts[1:])]
    rng.shuffle(pieces)
    whole = run_kernel_range(m, start, start + count)
    assert whole == kernel_sum(m.row_masks(), start, start + count)
    assert sum(run_kernel_range(m, a, b, rng.getrandbits(192)) for a, b in pieces) % (1 << 192) == whole


def test_gray_sequence_small():
    masks = [mask for mask, _, _ in gray_code_subsets(2)]
    assert masks == [0b01, 0b11, 0b10]


def test_gray_sequence_properties():
    for n in (1, 3, 5):
        seen = []
        prev = 0
        for mask, flipped, direction in gray_code_subsets(n):
            changed = mask ^ prev
            assert changed == 1 << flipped
            assert direction == (1 if mask & changed else -1)
            seen.append(mask)
            prev = mask
        assert len(seen) == (1 << n) - 1
        assert len(set(seen)) == (1 << n) - 1
        assert 0 not in seen


def test_gray_sequence_distinctness_n16():
    masks = {mask for mask, _, _ in gray_code_subsets(16)}
    assert len(masks) == 65535


@pytest.mark.parametrize("n", [35, 64])
def test_ryser_refuses_n_above_the_kernel_limit(monkeypatch, swap_kernels, n):
    # Above n = 34 only the Python loop could run, for about a day at n = 35.
    def no_work(*args):
        raise AssertionError(f"permanent_ryser started work on n = {n}")

    monkeypatch.setattr(exact, "_ryser_python", no_work)
    swap_kernels(ryser=no_work)
    with pytest.raises(ValueError, match=rf"permanent_ryser is limited to n <= 34 .*, got n = {n}$"):
        permanent_ryser(Matrix.from_rows([[1] * n] * n))


def test_gray_bounds():
    with pytest.raises(ValueError):
        list(gray_code_subsets(0))
    with pytest.raises(ValueError):
        list(gray_code_subsets(KERNEL_LIMIT + 1))
