"""Seeded, buffered random draws for the matching chain.

All randomness in this package flows through numpy's PCG64 bit generator so
that every run is reproducible from a single 64-bit seed. The algorithm
identifier ("pcg64") is recorded in generated manifests and trial output.

The chain consumes three kinds of draws: an edge index uniform on [0, n) when
the current matching is perfect, a vertex index uniform on [0, 2n) when it is
near-perfect, and a unit float for the acceptance filter (drawn only when the
proposal ratio is below 1). ``BufferedDraws`` pre-generates each kind in
blocks, which makes per-step cost small while keeping the consumed stream a
pure function of the seed. The blocks are the int64 and float64 arrays that
PCG64 returns, kept as memoryviews, which the sampler's compiled kernel reads
in place.
"""

from __future__ import annotations

import numpy as np

RNG_ALGORITHM = "pcg64"

_BUFFER_SIZE = 1 << 16


class BufferedDraws:
    """Three block-buffered draw streams over one seeded PCG64 generator.

    Each buffer is a memoryview of the int64 or float64 array that PCG64
    returned, with a read position; indexing it yields a Python ``int`` or
    ``float`` without copying the block. Refills happen lazily in
    consumption order, so a trajectory is a deterministic function of
    (seed, n, start state).
    """

    def __init__(self, seed: int, n: int, buffer_size: int = _BUFFER_SIZE):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if buffer_size < 1:
            # An empty refill would leave walk resuming forever.
            raise ValueError(f"buffer_size must be >= 1, got {buffer_size}")
        self.seed = seed
        self.n = n
        self.size = buffer_size
        self._gen = np.random.Generator(np.random.PCG64(seed))
        # Empty buffers with pos 0 trigger a lazy refill on first use.
        self.edge_buf = memoryview(np.empty(0, dtype=np.int64))
        self.edge_pos = 0
        self.vert_buf = memoryview(np.empty(0, dtype=np.int64))
        self.vert_pos = 0
        self.unit_buf = memoryview(np.empty(0, dtype=np.float64))
        self.unit_pos = 0

    def refill_edge(self) -> memoryview:
        self.edge_buf = memoryview(self._gen.integers(0, self.n, size=self.size))
        self.edge_pos = 0
        return self.edge_buf

    def refill_vert(self) -> memoryview:
        self.vert_buf = memoryview(self._gen.integers(0, 2 * self.n, size=self.size))
        self.vert_pos = 0
        return self.vert_buf

    def refill_unit(self) -> memoryview:
        self.unit_buf = memoryview(self._gen.random(size=self.size))
        self.unit_pos = 0
        return self.unit_buf

    def edge_index(self) -> int:
        """Uniform index over the n matched edges of a perfect matching."""
        if self.edge_pos >= len(self.edge_buf):
            self.refill_edge()
        value = self.edge_buf[self.edge_pos]
        self.edge_pos += 1
        return value

    def vertex_index(self) -> int:
        """Uniform index over the 2n vertices; values < n are rows."""
        if self.vert_pos >= len(self.vert_buf):
            self.refill_vert()
        value = self.vert_buf[self.vert_pos]
        self.vert_pos += 1
        return value

    def unit(self) -> float:
        """Uniform float in [0, 1) for the acceptance filter."""
        if self.unit_pos >= len(self.unit_buf):
            self.refill_unit()
        value = self.unit_buf[self.unit_pos]
        self.unit_pos += 1
        return value


def generator(seed: int) -> np.random.Generator:
    """A plain seeded generator for non-chain uses (matrix generation)."""
    return np.random.Generator(np.random.PCG64(seed))
