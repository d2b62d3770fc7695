"""Metropolis chain over perfect and near-perfect matchings of K_{n,n}.

Every row-column pair is usable as a matching edge; pairs absent from the
problem instance carry the activity penalty lambda instead of 1. States are
matchings, weighted as

    w(M) = lambda^(# non-instance pairs in M)              if M is perfect
    w(M) = w(u, v) * lambda^(# non-instance pairs in M)    if M has hole (u, v)

with all weight arithmetic in natural-log space, since the activity reaches
1/n! and hole weights reach factorial scale.

Transitions from a perfect matching remove one uniformly chosen pair. From a
near-perfect matching with hole (u, v), a vertex x is drawn uniformly from
all 2n vertices (indices below n are rows, the rest are columns):

* x is u or v: propose adding the pair (u, v), making the matching perfect.
* x is a matched column: propose replacing the pair (w, x) by (u, x), which
  moves the hole to (w, v).
* x is a matched row: propose replacing the pair (x, z) by (x, v), which
  moves the hole to (u, z).

In a near-perfect matching only u and v are uncovered, so exactly one rule
applies to every draw. Each proposal is accepted with probability
min(1, w(M') / w(M)), computed as exp of the log-weight difference; a
rejected proposal still consumes a step. Exactly one draw selects the
proposal and at most one more decides acceptance (none when the weight
ratio is at least 1).
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
from array import array
from dataclasses import dataclass

import numpy as np

from . import _native
from .matrix import Matching, Matrix
from .rng import BufferedDraws


class StationaryConvergenceError(RuntimeError):
    """Power iteration failed to reach the requested residual."""


@dataclass(frozen=True)
class WeightTable:
    """Activity and hole weights for one annealing stage, in log space.

    ``edge_present`` is the instance matrix, flattened row-major; ``log_w``
    is the n x n hole-weight table, also flattened.
    """

    n: int
    log_lambda: float
    log_w: tuple[float, ...]
    edge_present: tuple[int, ...]

    @classmethod
    def initial(cls, m: Matrix, log_lambda: float = 0.0) -> "WeightTable":
        """Starting table: every hole weight n, activity 1."""
        n = m.n
        flat_edges = tuple(cell for row in m.rows for cell in row)
        return cls(n, log_lambda, tuple([math.log(n)] * (n * n)), flat_edges)

    def with_updates(self, log_lambda: float | None = None, log_w=None) -> "WeightTable":
        return WeightTable(
            self.n,
            self.log_lambda if log_lambda is None else log_lambda,
            self.log_w if log_w is None else tuple(log_w),
            self.edge_present,
        )

    def hole_log_w(self, u: int, v: int) -> float:
        return self.log_w[u * self.n + v]


def lambda_edges(matching: Matching, wt: WeightTable) -> int:
    """Recount of matched pairs absent from the instance."""
    n = wt.n
    return sum(1 for u, v in matching.pairs if not wt.edge_present[u * n + v])


def log_weight(matching: Matching, wt: WeightTable) -> float:
    """ln w(M): activity count times ln(lambda), plus the hole weight."""
    value = lambda_edges(matching, wt) * wt.log_lambda
    if matching.hole is not None:
        u, v = matching.hole
        value += wt.hole_log_w(u, v)
    return value


def propose(matching: Matching, draws) -> Matching:
    """The proposal M' for one transition, before the acceptance filter.

    ``draws`` supplies ``edge_index`` (perfect matchings) or
    ``vertex_index`` (near-perfect ones); one call selects the proposal.
    """
    n = matching.n
    if matching.is_perfect:
        # Each row owns exactly one pair, so a uniform row index selects a
        # uniform matched pair.
        target = draws.edge_index()
        removed = (target, matching.row_to_col()[target])
        return Matching(n, matching.pairs - {removed}, removed)
    hu, hv = matching.hole
    x = draws.vertex_index()
    assignment = matching.row_to_col()
    if x < n:
        if x == hu:
            return Matching(n, matching.pairs | {(hu, hv)}, None)
        z = assignment[x]
        new_pairs = (matching.pairs - {(x, z)}) | {(x, hv)}
        return Matching(n, new_pairs, (hu, z))
    xc = x - n
    if xc == hv:
        return Matching(n, matching.pairs | {(hu, hv)}, None)
    w = next(u for u, v in matching.pairs if v == xc)
    new_pairs = (matching.pairs - {(w, xc)}) | {(hu, xc)}
    return Matching(n, new_pairs, (w, hv))


def step(state: Matching, wt: WeightTable, draws: BufferedDraws) -> Matching:
    """One Metropolis transition; returns the new state (possibly the old)."""
    proposal = propose(state, draws)
    delta = log_weight(proposal, wt) - log_weight(state, wt)
    if delta >= 0.0:
        return proposal
    if draws.unit() < math.exp(delta):
        return proposal
    return state


def enumerate_states(n: int) -> list[Matching]:
    """Every perfect and near-perfect matching of K_{n,n}, in canonical order.

    There are n! perfect matchings and n^2 * (n-1)! near-perfect ones, or
    (n+1)! states in total. States are keyed by their row-assignment tuple
    (-1 marking the hole row) and returned in sorted key order.
    """
    if not 1 <= n <= 6:
        raise ValueError(f"state enumeration is practical only for 1 <= n <= 6, got {n}")
    assignments: list[tuple[int, ...]] = []
    for perm in itertools.permutations(range(n)):
        assignments.append(perm)
    for hu in range(n):
        for hv in range(n):
            other_rows = [u for u in range(n) if u != hu]
            other_cols = [v for v in range(n) if v != hv]
            for perm in itertools.permutations(other_cols):
                assignment = [-1] * n
                for u, v in zip(other_rows, perm):
                    assignment[u] = v
                assignments.append(tuple(assignment))
    assignments.sort()
    return [Matching.from_row_to_col(a) for a in assignments]


def state_key(state: Matching) -> tuple[int, ...]:
    return tuple(state.row_to_col())


class _FixedDraw:
    """Draw source that answers the proposal draw with one fixed index."""

    def __init__(self, index: int):
        self.index = index

    def edge_index(self) -> int:
        return self.index

    def vertex_index(self) -> int:
        return self.index


def build_transition_matrix(n: int, wt: WeightTable) -> tuple[list[Matching], np.ndarray]:
    """Explicit transition matrix of ``propose`` plus the acceptance filter.

    Each state's proposals come from feeding ``propose`` every equally
    likely draw: the n edge indices from a perfect matching, the 2n vertex
    indices from a near-perfect one.
    """
    states = enumerate_states(n)
    index = {state_key(s): i for i, s in enumerate(states)}
    size = len(states)
    matrix = np.zeros((size, size))
    log_weights = [log_weight(s, wt) for s in states]
    for i, state in enumerate(states):
        draw_count = n if state.is_perfect else 2 * n
        select_p = 1.0 / draw_count
        for x in range(draw_count):
            j = index[state_key(propose(state, _FixedDraw(x)))]
            accept = min(1.0, math.exp(log_weights[j] - log_weights[i]))
            matrix[i, j] += select_p * accept
            matrix[i, i] += select_p * (1.0 - accept)
    return states, matrix


def exact_stationary(
    n: int,
    wt: WeightTable,
    residual: float = 1e-12,
    max_iterations: int = 500_000,
) -> tuple[list[Matching], np.ndarray]:
    """Stationary distribution of the enumerated chain by power iteration.

    Iterates pi <- pi P until the L1 residual drops below ``residual``.
    Returns the states (in enumeration order) with their probabilities.
    """
    if n > 5:
        raise ValueError(f"exact stationary distribution is limited to n <= 5, got {n}")
    states, matrix = build_transition_matrix(n, wt)
    pi = np.full(len(states), 1.0 / len(states))
    for _ in range(max_iterations):
        nxt = pi @ matrix
        if np.abs(nxt - pi).sum() < residual:
            return states, nxt
        pi = nxt
    raise StationaryConvergenceError(
        f"no convergence to L1 residual {residual} within {max_iterations} iterations"
    )


class _WalkState(ctypes.Structure):
    """The ``walk_state`` struct of _walk.c; ChainSampler's only copy of its
    hole and non-instance pair count."""

    _fields_ = [
        ("n", ctypes.c_int64),
        ("edge", ctypes.c_void_p),
        ("log_w", ctypes.c_void_p),
        ("log_lambda", ctypes.c_double),
        ("r2c", ctypes.c_void_p),
        ("c2r", ctypes.c_void_p),
        ("hu", ctypes.c_int64),
        ("hv", ctypes.c_int64),
        ("k", ctypes.c_int64),
        ("ebuf", ctypes.c_void_p),
        ("elen", ctypes.c_int64),
        ("epos", ctypes.c_int64),
        ("vbuf", ctypes.c_void_p),
        ("vlen", ctypes.c_int64),
        ("vpos", ctypes.c_int64),
        ("ubuf", ctypes.c_void_p),
        ("ulen", ctypes.c_int64),
        ("upos", ctypes.c_int64),
        ("need", ctypes.c_int64),
        ("countdown", ctypes.c_int64),
        ("spacing", ctypes.c_int64),
        ("counts", ctypes.c_void_p),
        ("seen", ctypes.c_void_p),
        ("nseen", ctypes.c_int64),
    ]


@functools.cache
def _walk_kernel():
    """The compiled ``walk`` of _walk.c, or None when it cannot be built or loaded.

    ``ChainSampler.walk`` asks for it on every call and runs its Python loop
    on None.
    """
    return _native.kernel("walk", ctypes.c_int64, ctypes.POINTER(_WalkState), ctypes.c_int64)


class ChainSampler:
    """Mutable walker used by the estimator's inner loop.

    Keeps the matching as paired row/column assignment arrays (int64
    ``array`` objects, updated in place) plus the hole, maintains the
    non-instance pair count incrementally (the hole and the count live in
    the kernel state, for both kernels), and consumes draws from a
    BufferedDraws in exactly the same order as the reference ``step``
    function, so short trajectories of the two are interchangeable.

    Spaced samples are tallied inside ``walk`` itself: while ``spacing`` is
    positive, the state after every ``spacing``-th step is counted in
    ``counts`` under a key for its hole and non-instance pair count, so a
    whole stage of samples is one ``walk`` call. ``tally`` sets this up and
    decodes the table.

    ``walk`` runs the compiled kernel of _walk.c when it can be built and
    loaded, and otherwise its own Python loop; the two take the same steps
    on the same draws, bit for bit. The kernel reads the draw buffers in
    place and never refills one: when the next draw it needs is in an empty
    buffer, it returns before that step (leaving an already-read proposal
    draw unconsumed) with the steps still to take. ``walk`` then calls the
    ``BufferedDraws`` refill itself and resumes the kernel, so refills
    happen lazily, in consumption order, from ``walk``'s own frame, and
    control comes back to the interpreter (signals, Ctrl-C) at least once
    per buffer of draws. The state is whole after every kernel return, so a
    refill that raises leaves the sampler at the steps taken so far, with
    their samples counted.
    """

    def __init__(self, wt: WeightTable, start: Matching, draws: BufferedDraws):
        n = wt.n
        if draws.n != n:
            raise ValueError("draw source sized for a different n")
        self.n = n
        self.draws = draws
        self.edge_flat = list(wt.edge_present)
        self.log_w = list(wt.log_w)
        self.log_lambda = wt.log_lambda
        start.validate()
        self.row_to_col = array("q", start.row_to_col())
        self.col_to_row = array("q", [-1] * n)
        for u, v in start.pairs:
            self.col_to_row[v] = u
        self.steps_taken = 0
        # 0 makes walk a plain walk; see tally.
        self.spacing = 0
        self.counts: dict[int, int] = {}

        # The kernel state owns the hole and the non-instance pair count for
        # both kernels. Per-key sample counts and first-seen keys are indexed
        # by the counts key, below (n * n + 1) * (n + 1). The arrays it points
        # into stay exported through _pinned, so none can be resized or freed
        # under it.
        hu, hv = (-1, -1) if start.hole is None else start.hole
        self._edges = array("q", wt.edge_present)
        self._tallies = np.zeros((n * n + 1) * (n + 1), dtype=np.int64)
        self._seen = np.zeros_like(self._tallies)
        self._pinned = [
            _native.pin(a)
            for a in (self._edges, self.row_to_col, self.col_to_row, self._tallies, self._seen)
        ]
        st = self._kernel_state = _WalkState(n=n, hu=hu, hv=hv, k=lambda_edges(start, wt), countdown=-1)
        st.edge, st.r2c, st.c2r, st.counts, st.seen = map(ctypes.addressof, self._pinned)
        self._kernel_args = ctypes.byref(st)
        self._set_kernel_weights(wt)
        # The draw buffers whose addresses the kernel state holds.
        self._buffers = (None, None, None)

    @property
    def hole_u(self) -> int:
        return self._kernel_state.hu

    @property
    def hole_v(self) -> int:
        return self._kernel_state.hv

    @property
    def lambda_count(self) -> int:
        return self._kernel_state.k

    def _set_kernel_weights(self, wt: WeightTable) -> None:
        # The kernel indexes these without bounds checks.
        if len(wt.edge_present) != self.n * self.n or len(wt.log_w) != self.n * self.n:
            raise ValueError(f"weight table needs {self.n * self.n} entries per table")
        self._weights = array("d", wt.log_w)
        self._kernel_state.log_w = _native.address(self._weights)
        self._kernel_state.log_lambda = wt.log_lambda

    def set_weights(self, wt: WeightTable) -> None:
        """Swap in the next stage's activity and hole weights."""
        if wt.n != self.n or list(wt.edge_present) != self.edge_flat:
            raise ValueError("weight table belongs to a different instance")
        self.log_w = list(wt.log_w)
        self.log_lambda = wt.log_lambda
        self._set_kernel_weights(wt)

    def state(self) -> Matching:
        pairs = frozenset((u, v) for u, v in enumerate(self.row_to_col) if v >= 0)
        return Matching(self.n, pairs, self.hole())

    def hole(self) -> tuple[int, int] | None:
        st = self._kernel_state
        return None if st.hu < 0 else (st.hu, st.hv)

    def tally(self, spacing: int, samples: int) -> list[tuple[tuple[int, int] | None, int, int]]:
        """Take ``samples`` samples ``spacing`` steps apart in one ``walk`` call.

        Returns (hole or None, non-instance pair count k, count) for each
        distinct sampled (hole, k), in the order each was first seen.
        """
        if spacing < 1:
            raise ValueError(f"sample spacing must be at least 1, got {spacing}")
        self.spacing = spacing
        self.counts = {}
        try:
            self.walk(spacing * samples)
        finally:
            self.spacing = 0
        n = self.n
        out = []
        for key, count in self.counts.items():
            cell, k = divmod(key, n + 1)
            out.append((None if cell == 0 else divmod(cell - 1, n), k, count))
        return out

    def walk(self, steps: int) -> None:
        """Advance the chain by ``steps`` Metropolis transitions.

        While ``spacing`` is positive, the state after every ``spacing``-th
        step of this call is also counted in ``counts`` under the key
        (u * n + v + 1) * (n + 1) + k for hole (u, v), or k when perfect.
        """
        draws = self.draws
        st = self._kernel_state
        spacing = self.spacing
        kernel = _walk_kernel()
        if kernel is not None:
            if spacing:
                st.spacing = st.countdown = spacing
            left = steps
            try:
                while True:
                    buffers = self._buffers
                    if (
                        draws.edge_buf is not buffers[0]
                        or draws.vert_buf is not buffers[1]
                        or draws.unit_buf is not buffers[2]
                    ):
                        self._buffers = buffers = (draws.edge_buf, draws.vert_buf, draws.unit_buf)
                        st.ebuf, st.vbuf, st.ubuf = map(_native.address, buffers)
                        st.elen, st.vlen, st.ulen = map(len, buffers)
                    st.epos, st.vpos, st.upos = draws.edge_pos, draws.vert_pos, draws.unit_pos
                    left = kernel(self._kernel_args, left)
                    draws.edge_pos, draws.vert_pos, draws.unit_pos = st.epos, st.vpos, st.upos
                    if left <= 0:
                        break
                    # need is the dry buffer's NEED_* value in _walk.c.
                    (draws.refill_edge, draws.refill_vert, draws.refill_unit)[st.need]()
            finally:
                # Also on an interrupted refill: the kernel state is whole
                # after every kernel return, so count the steps and samples
                # taken so far.
                self.steps_taken += steps - left
                if spacing:
                    st.countdown = -1
                    seen = self._seen[: st.nseen]
                    counts = self.counts
                    for key, count in zip(seen.tolist(), self._tallies[seen].tolist()):
                        counts[key] = counts.get(key, 0) + count
                    self._tallies[seen] = 0
                    st.nseen = 0
            return

        n = self.n
        edge = self.edge_flat
        log_w = self.log_w
        log_lambda = self.log_lambda
        # Lists index faster than the assignment arrays, so a long walk works
        # on list copies and writes them back at the end. Copying costs about
        # as much as it saves over 8 steps at n = 4 and over 20 at n = 16, so
        # a walk of up to 16 steps indexes the arrays in place.
        copied = steps > 16
        r2c = self.row_to_col.tolist() if copied else self.row_to_col
        c2r = self.col_to_row.tolist() if copied else self.col_to_row
        hu = st.hu
        hv = st.hv
        k = st.k
        ebuf = draws.edge_buf
        ei = draws.edge_pos
        vbuf = draws.vert_buf
        vi = draws.vert_pos
        ubuf = draws.unit_buf
        ui = draws.unit_pos
        exp = math.exp
        counts = self.counts
        count_of = counts.get
        n1 = n + 1

        # ``full`` runs of ``spacing`` steps, each followed by a tallied
        # sample, then the untallied rest.
        full, rest = divmod(steps, spacing) if spacing > 0 and steps > 0 else (0, steps)
        spaced = range(spacing)
        for run in itertools.chain(itertools.repeat(spaced, full), (range(rest),)):
            for _ in run:
                if hu < 0:
                    # Perfect: drop a uniformly chosen matched pair.
                    if ei >= len(ebuf):
                        ebuf = draws.refill_edge().tolist()
                        ei = 0
                    u = ebuf[ei]
                    ei += 1
                    v = r2c[u]
                    dk = edge[u * n + v] - 1
                    delta = dk * log_lambda + log_w[u * n + v]
                    if delta >= 0.0:
                        accept = True
                    else:
                        if ui >= len(ubuf):
                            ubuf = draws.refill_unit().tolist()
                            ui = 0
                        accept = ubuf[ui] < exp(delta)
                        ui += 1
                    if accept:
                        r2c[u] = -1
                        c2r[v] = -1
                        hu = u
                        hv = v
                        k += dk
                else:
                    if vi >= len(vbuf):
                        vbuf = draws.refill_vert().tolist()
                        vi = 0
                    x = vbuf[vi]
                    vi += 1
                    if x == hu or x - n == hv:
                        # Hole row or hole column: complete the hole pair.
                        dk = 1 - edge[hu * n + hv]
                        delta = dk * log_lambda - log_w[hu * n + hv]
                        if delta >= 0.0:
                            accept = True
                        else:
                            if ui >= len(ubuf):
                                ubuf = draws.refill_unit().tolist()
                                ui = 0
                            accept = ubuf[ui] < exp(delta)
                            ui += 1
                        if accept:
                            r2c[hu] = hv
                            c2r[hv] = hu
                            hu = -1
                            k += dk
                    elif x < n:
                        # Matched row x: swing its column onto the hole column.
                        z = r2c[x]
                        base = x * n
                        dk = edge[base + z] - edge[base + hv]
                        delta = (
                            dk * log_lambda
                            + log_w[hu * n + z]
                            - log_w[hu * n + hv]
                        )
                        if delta >= 0.0:
                            accept = True
                        else:
                            if ui >= len(ubuf):
                                ubuf = draws.refill_unit().tolist()
                                ui = 0
                            accept = ubuf[ui] < exp(delta)
                            ui += 1
                        if accept:
                            r2c[x] = hv
                            c2r[hv] = x
                            c2r[z] = -1
                            hv = z
                            k += dk
                    else:
                        # Matched column xc: pull it onto the hole row.
                        xc = x - n
                        w = c2r[xc]
                        dk = edge[w * n + xc] - edge[hu * n + xc]
                        delta = (
                            dk * log_lambda
                            + log_w[w * n + hv]
                            - log_w[hu * n + hv]
                        )
                        if delta >= 0.0:
                            accept = True
                        else:
                            if ui >= len(ubuf):
                                ubuf = draws.refill_unit().tolist()
                                ui = 0
                            accept = ubuf[ui] < exp(delta)
                            ui += 1
                        if accept:
                            r2c[w] = -1
                            r2c[hu] = xc
                            c2r[xc] = hu
                            hu = w
                            k += dk
            if run is spaced:
                key = (hu * n + hv + 1) * n1 + k if hu >= 0 else k
                counts[key] = count_of(key, 0) + 1

        if copied:
            self.row_to_col[:] = array("q", r2c)
            self.col_to_row[:] = array("q", c2r)
        st.hu = hu
        st.hv = hv
        st.k = k
        self.steps_taken += steps
        draws.edge_pos = ei
        draws.vert_pos = vi
        draws.unit_pos = ui
