"""Seeded, buffered random draws for the matching chain.

All randomness in this package flows through numpy's PCG64 bit generator so
that every run is reproducible from a single 64-bit seed. The algorithm
identifier ("pcg64") is recorded in generated manifests and trial output.

The chain consumes three kinds of draws: an edge index uniform on [0, n) when
the current matching is perfect, a vertex index uniform on [0, 2n) when it is
near-perfect, and a unit draw for the acceptance filter (drawn only when the
proposal ratio is below 1). A unit draw is the integer u = raw >> 11, uniform
on [0, 2^53), of one raw 64-bit PCG64 output: numpy's ``Generator.random()``
before its scaling by 2^-53, which the walk kernels compare with the integer
thresholds of ``chain.acceptance_table`` and ``BufferedDraws.unit`` scales
for the reference chain. ``BufferedDraws`` pre-generates each kind in
blocks, which makes per-step cost small while keeping the consumed stream a
pure function of the seed. Each kind has one int64 or uint64 block and one
memoryview of it, both made once and zeroed, so that a compiled kernel's
clamped read of a block never filled reads 0; a refill rewrites the block in
place, so it never moves: the sampler points its compiled kernel at the
blocks, and at the three read positions in ``BufferedDraws.positions``,
once, and its Python kernel indexes the views.

The blocks come from one of two sources that give the same values, bit for
bit. Where the compiled kernels load (see _native.py), ``fill_bounded`` and
``fill_unit`` of _walk.c fill them: a C port of PCG64 and of the numpy
``Generator.integers(0, high)`` and unscaled ``Generator.random()``
algorithms, working on a copy of the seeded ``np.random.PCG64``'s state. A
sampler that runs ``walk_states`` gives that state a ring
(``generate_ahead``), which the kernel fills with the generator's next raw
outputs as it walks, and the refills use those outputs before they generate
more. Otherwise the numpy ``Generator`` itself fills the blocks, the unit
block from its bit generator's ``random_raw() >> 11``; numpy is also the
oracle the C port is tested against. numpy is imported when the first
``BufferedDraws`` or ``generator`` is made, not with this module, so
commands that draw nothing never load it.
"""

from __future__ import annotations

import ctypes
import functools
import numbers
from array import array
from typing import TYPE_CHECKING

from . import _native

if TYPE_CHECKING:
    import numpy as np

RNG_ALGORITHM = "pcg64"

_BUFFER_SIZE = 1 << 16

# The RING_WORDS of _walk.c: raw outputs a generator's ring holds (512 KB).
_RING_WORDS = 1 << 16


class _PCG64State(ctypes.Structure):
    """The ``pcg64_state`` struct of _walk.c: a PCG64 bit generator's
    ``.state``, and the ring of its next raw outputs, ``ring[head..tail)``
    modulo ``_RING_WORDS``, that ``walk_states`` generated ahead of it
    (``ring`` is NULL until ``generate_ahead``)."""

    _fields_ = [
        ("state", ctypes.c_uint64 * 2),
        ("inc", ctypes.c_uint64 * 2),
        ("has_uint32", ctypes.c_int64),
        ("uinteger", ctypes.c_uint64),
        ("ring", ctypes.c_void_p),
        ("head", ctypes.c_int64),
        ("tail", ctypes.c_int64),
    ]


@functools.cache
def _refill_kernels():
    """``fill_bounded`` and ``fill_unit`` of _walk.c, or None when they cannot be
    built or loaded.

    ``BufferedDraws`` asks once, when it is made, and keeps its generator
    state in the numpy ``Generator`` on None.
    """
    state = ctypes.POINTER(_PCG64State)
    bounded = _native.kernel("fill_bounded", state, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64)
    if bounded is None:
        return None
    return bounded, _native.kernel("fill_unit", state, ctypes.c_void_p, ctypes.c_int64)


def check_seed(seed: int, name: str = "seed") -> None:
    """Refuse a seed that is not a nonnegative integer; the message starts
    with ``name``.

    numpy's ``PCG64`` refuses a negative seed without naming it, and takes
    None for fresh entropy, which would make a run irreproducible.
    """
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {seed!r}")


def _words(value: int) -> tuple[int, int]:
    return value & (1 << 64) - 1, value >> 64


class BufferedDraws:
    """Three block-buffered draw streams over one seeded PCG64 generator.

    Each stream reads one block of ``size`` draws through one memoryview,
    ``edge_buf``, ``vert_buf`` or ``unit_buf`` (int64, int64 and uint64),
    made once; indexing it yields a Python ``int`` without copying the
    block. A refill rewrites the block in place, sets its read position to 0
    and returns that same view. The read positions in the edge, vertex and
    unit blocks are the three slots of ``positions``, their only store.
    Refills happen lazily in consumption order, so a trajectory is a
    deterministic function of (seed, n, start state).
    """

    def __init__(self, seed: int, n: int, buffer_size: int = _BUFFER_SIZE):
        if not 1 <= n < 1 << 31:
            # fill_bounded of _walk.c draws vertex indices with 32-bit bounds.
            raise ValueError(f"n must be in [1, 2^31), got {n}")
        if buffer_size < 1:
            # An empty refill would leave walk resuming forever.
            raise ValueError(f"buffer_size must be >= 1, got {buffer_size}")
        check_seed(seed)
        import numpy as np

        self.n = n
        self.size = buffer_size
        bit_generator = np.random.PCG64(seed)
        # From here on the generator state lives in exactly one place: numpy's
        # Generator, or the struct that the C refills advance.
        self._kernels = _refill_kernels()
        if self._kernels is None:
            self._gen = np.random.Generator(bit_generator)
        else:
            state = bit_generator.state
            self._pcg = _PCG64State(
                _words(state["state"]["state"]),
                _words(state["state"]["inc"]),
                state["has_uint32"],
                state["uinteger"],
            )
        self.edge_buf = memoryview(np.zeros(buffer_size, dtype=np.int64))
        self.vert_buf = memoryview(np.zeros(buffer_size, dtype=np.int64))
        self.unit_buf = memoryview(np.zeros(buffer_size, dtype=np.uint64))
        # Every block starts used up, which triggers a lazy refill on first use.
        self.positions = array("q", [buffer_size] * 3)

    edge_pos = property(lambda self: self.positions[0])
    vert_pos = property(lambda self: self.positions[1])
    unit_pos = property(lambda self: self.positions[2])

    def generate_ahead(self) -> int:
        """The address of the generator's struct for ``walk_states`` to
        generate ahead into, with its ring allocated on the first call; 0
        when numpy's ``Generator`` fills the blocks."""
        if self._kernels is None:
            return 0
        if not self._pcg.ring:
            import numpy as np

            self._ring = np.empty(_RING_WORDS, dtype=np.uint64)
            self._pcg.ring = self._ring.ctypes.data
        return ctypes.addressof(self._pcg)

    @property
    def ahead(self) -> int:
        """Raw outputs generated ahead and not yet used by a refill."""
        return 0 if self._kernels is None else self._pcg.tail - self._pcg.head

    def _bounded(self, block: np.ndarray, high: int) -> None:
        """Rewrite ``block`` with ``integers(0, high)``."""
        if self._kernels is None:
            block[:] = self._gen.integers(0, high, size=self.size)
        else:
            self._kernels[0](self._pcg, high, block.ctypes.data, self.size)

    def refill_edge(self) -> memoryview:
        self._bounded(self.edge_buf.obj, self.n)
        self.positions[0] = 0
        return self.edge_buf

    def refill_vert(self) -> memoryview:
        self._bounded(self.vert_buf.obj, 2 * self.n)
        self.positions[1] = 0
        return self.vert_buf

    def refill_unit(self) -> memoryview:
        block = self.unit_buf.obj
        if self._kernels is None:
            # The integers that Generator.random(size) scales by 2^-53.
            block[:] = self._gen.bit_generator.random_raw(self.size) >> 11
        else:
            self._kernels[1](self._pcg, block.ctypes.data, self.size)
        self.positions[2] = 0
        return self.unit_buf

    def _next(self, slot: int, buffer: memoryview, refill):
        """The draw at ``positions[slot]`` of ``buffer``, refilled first when used up."""
        position = self.positions[slot]
        if position >= self.size:
            buffer, position = refill(), 0
        self.positions[slot] = position + 1
        return buffer[position]

    def edge_index(self) -> int:
        """Uniform index over the n matched edges of a perfect matching."""
        return self._next(0, self.edge_buf, self.refill_edge)

    def vertex_index(self) -> int:
        """Uniform index over the 2n vertices; values < n are rows."""
        return self._next(1, self.vert_buf, self.refill_vert)

    def unit(self) -> float:
        """Uniform float in [0, 1) for the reference chain's acceptance
        filter: the next unit draw times 2^-53, exactly the value that
        ``Generator.random()`` makes of the same output."""
        return self._next(2, self.unit_buf, self.refill_unit) * 2**-53


def generator(seed: int) -> np.random.Generator:
    """A plain seeded generator for non-chain uses (matrix generation)."""
    check_seed(seed)
    import numpy as np

    return np.random.Generator(np.random.PCG64(seed))
