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
ratio is at least 1). ``ChainSampler`` reads each ratio from a table that
``acceptance_table`` builds once per stage.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from . import _native
from .matrix import Matching, Matrix
from .rng import BufferedDraws

if TYPE_CHECKING:
    import numpy as np


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
    def initial(cls, m: Matrix) -> "WeightTable":
        """Starting table: every hole weight n, activity 1."""
        n = m.n
        flat_edges = tuple(cell for row in m.rows for cell in row)
        return cls(n, 0.0, tuple([math.log(n)] * (n * n)), flat_edges)

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
    """One Metropolis transition, with delta summed as in ``acceptance_table``;
    returns the new state (possibly the old)."""
    proposal = propose(state, draws)
    delta = (lambda_edges(proposal, wt) - lambda_edges(state, wt)) * wt.log_lambda
    if proposal.hole is not None:
        delta += wt.hole_log_w(*proposal.hole)
    if state.hole is not None:
        delta -= wt.hole_log_w(*state.hole)
    return proposal if delta >= 0.0 or draws.unit() < math.exp(delta) else state


# The largest n at which a ChainSampler walks with walk_states, the
# enumerated-state kernel of _walk.c (see ChainSampler): the largest n that
# enumerate_states lists, and walk_states outruns walk up to there (README,
# Speed).
STATE_WALK_LIMIT = 6


@functools.cache
def enumerate_states(n: int) -> tuple[Matching, ...]:
    """Every perfect and near-perfect matching of K_{n,n}, in canonical order.

    There are n! perfect matchings and n^2 * (n-1)! near-perfect ones, or
    (n+1)! states in total. States are keyed by their row-assignment tuple
    (-1 marking the hole row) and returned in sorted key order, cached per
    n, for n up to ``STATE_WALK_LIMIT``.
    """
    if not 1 <= n <= STATE_WALK_LIMIT:
        raise ValueError(f"state enumeration is practical only for 1 <= n <= {STATE_WALK_LIMIT}, got {n}")
    perms = list(itertools.permutations(range(n)))
    # A near-perfect matching is a perfect one without its hole row's pair.
    near = [p[:u] + (-1,) + p[u + 1 :] for p in perms for u in range(n)]
    return tuple(Matching.from_row_to_col(a) for a in sorted(perms + near))


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


@functools.cache
def state_moves(n: int) -> tuple[tuple[int, ...], ...]:
    """Every proposal of the enumerated chain, as indices into ``enumerate_states(n)``.

    Entry [i][x] is the state that ``propose`` makes from state i on draw
    x: the edge index, one of n, from a perfect matching, and the vertex
    index, one of 2n, from a near-perfect one. Every draw is equally likely.
    Cached per n: the transition matrix and every ``ChainSampler`` that walks
    with ``walk_states`` read it.
    """
    states = enumerate_states(n)
    index = {state_key(s): i for i, s in enumerate(states)}
    return tuple(
        tuple(index[state_key(propose(state, _FixedDraw(x)))] for x in range(n if state.is_perfect else 2 * n))
        for state in states
    )


def build_transition_matrix(n: int, wt: WeightTable) -> tuple[tuple[Matching, ...], np.ndarray]:
    """Explicit transition matrix of ``propose`` plus the acceptance filter,
    over the proposals of ``state_moves``."""
    import numpy as np

    states = enumerate_states(n)
    size = len(states)
    matrix = np.zeros((size, size))
    log_weights = [log_weight(s, wt) for s in states]
    for i, moves in enumerate(state_moves(n)):
        select_p = 1.0 / len(moves)
        for j in moves:
            accept = min(1.0, math.exp(log_weights[j] - log_weights[i]))
            matrix[i, j] += select_p * accept
            matrix[i, i] += select_p * (1.0 - accept)
    return states, matrix


def exact_stationary(n: int, wt: WeightTable) -> tuple[tuple[Matching, ...], np.ndarray]:
    """Stationary distribution pi(M) = w(M) / Z of the enumerated chain.

    Every proposal is as likely as its reverse (1/n for a drop and its
    completion, 1/(2n) for a row or column move and its reverse), so the
    Metropolis filter makes the chain reversible with respect to w, and
    irreducibility makes that distribution its only stationary one. The
    weights are normalised in log space. Returns the states (in enumeration
    order) with their probabilities.
    """
    import numpy as np

    states = enumerate_states(n)
    log_weights = np.array([log_weight(s, wt) for s in states])
    weights = np.exp(log_weights - log_weights.max())
    return states, weights / weights.sum()


# The acceptance_table entry of a move whose weight ratio is at least 1: it
# is accepted without a unit draw. Every other entry is a threshold in
# [0, 2^53], which the compiled kernels compare unsigned with the unit draw,
# so NO_DRAW is above every draw there; see acceptance_table.
NO_DRAW = -1


def acceptance_table(wt: WeightTable) -> np.ndarray:
    """The acceptance entry of every move of one stage, int64, as ``walk``
    and ``_python_walk`` read it; ``walk_states`` reads entries gathered
    from it.

    A move's log-weight difference delta depends only on the hole, the moved
    index, the change dk in the non-instance pair count and the stage's
    weights. Its entry is ``NO_DRAW`` where delta >= 0.0, 0 where delta is
    NaN (infinite weights make it), and otherwise the threshold
    T = ceil(2^53 exp(delta)). A step consumes a unit draw exactly when its
    entry is not ``NO_DRAW``, and accepts when the draw u, a 53-bit integer
    (``BufferedDraws``), is below T. That holds exactly when the reference
    ``step``'s u * 2^-53 < exp(delta) does, so a NaN delta rejects, as it
    does there (_walk.c, ``acceptance_thresholds``). The compiled kernels
    read a unit value on every step, to need no branch on the entry, and
    compare it unsigned; on a ``NO_DRAW`` step that value, whatever it is,
    decides nothing, since ``NO_DRAW`` is then above every draw.
    With nn = n * n, the 2 * nn + 6 * n^3 entries are:

    * drop the pair (u, v) of a perfect matching: [u * n + v];
    * complete the hole (hu, hv): [nn + hu * n + hv];
    * move matched row x onto the hole column hv, which frees x's column z:
      [2 * nn + (dk + 1) * n^3 + hu * nn + z * n + hv];
    * move matched column xc onto the hole row hu, which frees xc's row w:
      [2 * nn + 3 * n^3 + (dk + 1) * n^3 + w * nn + hu * n + hv].

    delta is dk * ln(lambda) plus the hole log-weight moved to, minus the
    one left (drop: plus the pair's; complete: minus the hole's), summed left
    to right in float64; numpy's elementwise operations round as the scalar
    ones do. The entries are built from the deltas in one pass, by
    ``acceptance_thresholds`` of _walk.c where the library loads and by the
    list comprehension below, its oracle, where not. Both take exp from
    libm, the C one directly and the Python one through ``math.exp``, and
    never evaluate it at delta >= 0, where it could overflow.
    """
    import numpy as np

    n = wt.n
    log_lambda = wt.log_lambda
    log_w = np.array(wt.log_w, dtype=np.float64).reshape(n, n)
    edge = np.array(wt.edge_present, dtype=np.int64).reshape(n, n)
    dk_terms = np.array([-1.0, 0.0, 1.0])[:, None, None, None] * log_lambda
    # The four parts, each computed into its place in one array: temporaries
    # of the table's size tripled this at n = 64.
    nn, cube = n * n, n**3
    deltas = np.empty(2 * nn + 6 * cube)
    drops, completions = (deltas[start : start + nn].reshape(n, n) for start in (0, nn))
    row_moves, column_moves = (
        deltas[start : start + 3 * cube].reshape(3, n, n, n) for start in (2 * nn, 2 * nn + 3 * cube)
    )
    # Infinite weights make NaN deltas (inf - inf, 0 * inf).
    with np.errstate(invalid="ignore"):
        np.add((edge - 1) * log_lambda, log_w, out=drops)
        np.subtract((1 - edge) * log_lambda, log_w, out=completions)
        np.add(dk_terms, log_w[None, :, :, None], out=row_moves)
        np.subtract(row_moves, log_w[None, :, None, :], out=row_moves)
        np.add(dk_terms, log_w[None, :, None, :], out=column_moves)
        np.subtract(column_moves, log_w[None, None, :, :], out=column_moves)
    # acceptance_thresholds(deltas, count) of _walk.c, or None without the library.
    build = _native.kernel("acceptance_thresholds", ctypes.c_void_p, ctypes.c_int64)
    if build is not None:
        build(deltas.ctypes.data, len(deltas))
        return deltas.view(np.int64)
    exp, ceil, ldexp = math.exp, math.ceil, math.ldexp
    return np.array(
        [
            NO_DRAW if delta >= 0.0 else 0 if delta != delta else ceil(ldexp(exp(delta), 53))
            for delta in deltas.tolist()
        ],
        dtype=np.int64,
    )


class _WalkState(ctypes.Structure):
    """The ``walk_state`` struct of _walk.c, which all three walk kernels
    read and write: ``walk`` and ``_python_walk`` read the acceptance table
    directly, ``walk_states`` the entries gathered from it into its table of
    moves. All three compare the int64 entries with the 53-bit integer unit
    draws, the compiled kernels unsigned (``acceptance_table``). With the
    arrays it points into, among them the one ``acceptance_table`` returned,
    it is ChainSampler's only store of the acceptance table, the matching,
    the hole, the non-instance pair count and the tally. It points at the
    three draw blocks of a ``BufferedDraws`` and at its ``positions``, which
    never move, and, for ``walk_states``, always at its generator and the
    ring that ``BufferedDraws.generate_ahead`` gave it; ``walk_states``
    resumes from ``first`` and ``key`` and writes the matching back."""

    _fields_ = [
        ("n", ctypes.c_int64),
        ("edge", ctypes.c_void_p),
        ("accept", ctypes.c_void_p),
        ("r2c", ctypes.c_void_p),
        ("c2r", ctypes.c_void_p),
        ("ebuf", ctypes.c_void_p),
        ("vbuf", ctypes.c_void_p),
        ("ubuf", ctypes.c_void_p),
        ("size", ctypes.c_int64),
        ("pos", ctypes.c_void_p),
        ("left", ctypes.c_int64),
        ("hu", ctypes.c_int64),
        ("hv", ctypes.c_int64),
        ("k", ctypes.c_int64),
        ("countdown", ctypes.c_int64),
        ("spacing", ctypes.c_int64),
        ("need", ctypes.c_int64),
        ("counts", ctypes.c_void_p),
        ("seen", ctypes.c_void_p),
        ("nseen", ctypes.c_int64),
        ("moves", ctypes.c_void_p),
        ("states", ctypes.c_void_p),
        ("first", ctypes.c_int64),
        ("key", ctypes.c_int64),
        ("rng", ctypes.c_void_p),
    ]


# The NEED_* values of _walk.c: the block a stopped kernel needs refilled.
_NEED_EDGE, _NEED_VERT, _NEED_UNIT = 0, 1, 2

# The most steps one walk call takes, and the widest tally spacing: the
# struct holds both in int64, and ctypes would store a larger int modulo
# 2^64 without an error.
MAX_STEPS = 2**63 - 1


# The state_move struct of _walk.c: a move's acceptance entry, and the
# proposed state's first move (in bytes) and tally key.
_STATE_MOVE = [("accept", "<i8"), ("next", "<i4"), ("key", "<i4")]


@functools.cache
def _state_graph(n: int):
    """``enumerate_states(n)`` and ``state_moves(n)`` as read-only int64
    arrays, cached per n.

    Returns each state's row assignment (states by n, ascending, -1 at the
    hole row), its hole row and column (-1 where perfect) and its
    proposals, states by 2n, a perfect state's n proposals repeated to fill
    its row.
    """
    import numpy as np

    states = enumerate_states(n)
    assignments = np.array([s.row_to_col() for s in states], dtype=np.int64)
    holes = np.array([s.hole or (-1, -1) for s in states], dtype=np.int64)
    proposals = np.array([moves * (2 * n // len(moves)) for moves in state_moves(n)], dtype=np.int64)
    for shared in (assignments, holes, proposals):
        shared.flags.writeable = False
    return assignments, holes[:, 0], holes[:, 1], proposals


def _state_walk_table(wt: WeightTable):
    """The tables ``walk_states`` reads for one instance, but for the entries.

    Returns each state's tally key (``tally``'s key of its hole and k), the
    ``_STATE_MOVE`` array of every (state, draw) with its proposal filled
    in, and the index of each move's entry in ``acceptance_table``, which
    ``set_weights`` gathers into it. A move's entry is fixed by the holes of
    its two states and the change dk in k (layout in ``acceptance_table``'s
    docstring).
    """
    import numpy as np

    n = wt.n
    assignments, hu, hv, proposals = _state_graph(n)
    edge = np.array(wt.edge_present, dtype=np.int64).reshape(n, n)
    k = ((assignments >= 0) & (edge[np.arange(n), assignments] == 0)).sum(axis=1)
    keys = np.where(hu < 0, k, (hu * n + hv + 1) * (n + 1) + k)
    # The hole and k before (0) and after (1) each move.
    before = np.repeat(np.arange(len(keys)), 2 * n)
    after = proposals.ravel()
    hu0, hv0, hu1, hv1 = hu[before], hv[before], hu[after], hv[after]
    dk = k[after] - k[before]
    nn, cube = n * n, n**3
    # A drop, a completion, a row move (the hole column moves) and a column
    # move (the hole row moves).
    entries = np.select(
        [hu0 < 0, hu1 < 0, hu1 == hu0],
        [
            hu1 * n + hv1,
            nn + hu0 * n + hv0,
            2 * nn + (dk + 1) * cube + hu0 * nn + hv1 * n + hv0,
        ],
        2 * nn + 3 * cube + (dk + 1) * cube + hu1 * nn + hu0 * n + hv0,
    )
    moves = np.zeros(len(after), dtype=_STATE_MOVE)
    moves["next"] = after * 2 * n * moves.itemsize
    moves["key"] = keys[after]
    return keys, moves, entries


@dataclass
class PhaseStats:
    """Compressed sample table for one stage.

    ``perfect`` maps a non-instance pair count k to the number of perfect
    samples seen with that k; ``holes`` maps a hole position to the same
    kind of table for near-perfect samples. Counts are floats so that an
    exact distribution can stand in for sampled frequencies.
    """

    perfect: dict[int, float] = field(default_factory=dict)
    holes: dict[tuple[int, int], dict[int, float]] = field(default_factory=dict)
    total: float = 0.0

    def record(self, hole: tuple[int, int] | None, k: int, weight: float = 1.0) -> None:
        if hole is None:
            table = self.perfect
        else:
            table = self.holes.setdefault(hole, {})
        table[k] = table.get(k, 0.0) + weight
        self.total += weight

    def perfect_count(self) -> float:
        return sum(self.perfect.values())

    def hole_count(self, hole: tuple[int, int]) -> float:
        return sum(self.holes.get(hole, {}).values())


class ChainSampler:
    """Mutable walker used by the estimator's inner loop.

    The whole chain state lives in one ``_WalkState`` struct and the arrays
    it points into: the instance matrix, the stage's ``acceptance_table``
    (kept as ``set_weights`` built it), the matching as paired row/column
    assignment arrays (int64 ``array``s), the hole, the non-instance
    pair count (kept incrementally), the per-key sample counts and, for
    ``walk_states``, its table. It takes the reference ``step``'s draws in
    its order, and so its trajectory.

    ``tally`` is the one way to sample: it has the kernels count the state
    after every ``spacing``-th step of one ``walk`` call under a key for its
    hole and non-instance pair count, and returns the stage's ``PhaseStats``
    decoded from those counts. Outside ``tally``, ``walk`` counts nothing.

    ``walk`` is one loop over three kernels with one contract, which take
    the same steps on the same draws, bit for bit. The sampler chooses its
    kernel when it is made, from what the library of _walk.c and its draws
    can do. A sampler at n <= ``STATE_WALK_LIMIT`` whose draws the compiled
    refills make runs ``walk_states``, which steps through the states of
    ``enumerate_states`` on a table of their moves (``_state_walk_table``,
    whose entries ``set_weights`` gathers from the acceptance table) and
    generates the draws' next outputs ahead as it goes
    (``BufferedDraws.generate_ahead``). Any other sampler runs ``walk``.
    Without the library every sampler runs ``_python_walk``, which is also
    the oracle of the other two.

    The struct points, once, at the draw blocks of the ``BufferedDraws`` and
    at its ``positions``: the blocks are refilled in place and never move,
    and the Python kernel reads them in place through their one view each.
    A kernel takes the struct, with the steps left in it, and never
    refills a block: before a step whose next draw is in a used-up block it
    sets ``need`` and stores the state, the positions and the steps still to
    take (an already-read proposal draw stays unconsumed). ``walk`` then
    calls the ``BufferedDraws`` refill and resumes the kernel, so
    refills happen lazily, in consumption order, from ``walk``'s own frame,
    and control comes back to the interpreter (signals, Ctrl-C) at least
    once per block.

    An exception raised while ``walk`` runs leaves the sampler at the steps
    and draws its kernels have stored: ``walk`` takes ``steps_taken`` from
    the struct as it unwinds. The samples of an interrupted ``tally`` are
    dropped; the next ``tally`` starts from empty counts. The Python kernel
    stores its work once, after its step loop, so an exception inside that
    loop leaves the sampler as the call found it; only one during that
    final store can leave it part-written.
    """

    def __init__(self, wt: WeightTable, start: Matching, draws: BufferedDraws):
        n = wt.n
        if draws.n != n:
            raise ValueError("draw source sized for a different n")
        if start.n != n:
            # The kernels would index a matching of another size with n.
            raise ValueError(f"start matching has n = {start.n}, the weight table n = {n}")
        start.validate()
        self.n = n
        self.draws = draws
        self.steps_taken = 0
        hu, hv = (-1, -1) if start.hole is None else start.hole
        st = self._state = _WalkState(n=n, hu=hu, hv=hv, countdown=-1)
        self._edges = array("q", wt.edge_present)
        self._moves = None
        # The kernel that every walk call runs (see above); both compiled
        # ones take a pointer to the struct.
        walk_args = ctypes.POINTER(_WalkState)
        kernel = _native.kernel("walk_states", walk_args) if n <= STATE_WALK_LIMIT else None
        if kernel is not None:
            st.rng = draws.generate_ahead()
        if st.rng:
            keys, self._moves, self._entries = _state_walk_table(wt)
            assignments = _state_graph(n)[0]
            st.moves, st.states = self._moves.ctypes.data, assignments.ctypes.data
            # Every valid matching at n <= STATE_WALK_LIMIT is enumerated.
            index = (assignments == start.row_to_col()).all(axis=1).argmax()
            st.first, st.key = index * 2 * n * self._moves.itemsize, keys[index]
        else:
            kernel = _native.kernel("walk", walk_args) or self._python_walk
        self._kernel = kernel
        self.set_weights(wt)
        st.k = lambda_edges(start, wt)
        self.row_to_col = array("q", start.row_to_col())
        self.col_to_row = array("q", [-1] * n)
        for u, v in start.pairs:
            self.col_to_row[v] = u
        # Per-key sample counts and first-seen keys, indexed by the key of
        # tally's docstring, which is below (n * n + 1) * (n + 1).
        self._tallies = array("q", [0]) * ((n * n + 1) * (n + 1))
        self._seen = array("q", self._tallies)
        # The arrays the struct points into stay exported through _pinned, so
        # none can be resized or freed under it; the draw blocks and the
        # acceptance table stay exported through their views.
        arrays = self._edges, self.row_to_col, self.col_to_row, self._tallies, self._seen
        self._pinned = [_native.pin(a) for a in (*arrays, draws.positions)]
        st.edge, st.r2c, st.c2r, st.counts, st.seen, st.pos = map(ctypes.addressof, self._pinned)
        st.ebuf, st.vbuf, st.ubuf = map(_native.address, (draws.edge_buf, draws.vert_buf, draws.unit_buf))
        st.size = draws.size

    @property
    def lambda_count(self) -> int:
        return self._state.k

    def set_weights(self, wt: WeightTable) -> None:
        """Swap in the next stage's activity and hole weights: build their
        acceptance table once, keep it and, for ``walk_states``, gather its entries."""
        # The kernels index the tables without bounds checks.
        n = self.n
        if len(wt.edge_present) != n * n or len(wt.log_w) != n * n:
            raise ValueError(f"weight table needs {n * n} entries per table")
        if wt.n != self.n or array("q", wt.edge_present) != self._edges:
            raise ValueError("weight table belongs to a different instance")
        self._accept = memoryview(acceptance_table(wt))
        self._state.accept = _native.address(self._accept)
        if self._moves is not None:
            # Once per stage, not on every kernel call.
            self._moves["accept"] = self._accept.obj[self._entries]

    def state(self) -> Matching:
        pairs = frozenset((u, v) for u, v in enumerate(self.row_to_col) if v >= 0)
        return Matching(self.n, pairs, self.hole())

    def hole(self) -> tuple[int, int] | None:
        st = self._state
        return None if st.hu < 0 else (st.hu, st.hv)

    def tally(self, spacing: int, samples: int) -> PhaseStats:
        """Take ``samples`` samples ``spacing`` steps apart in one ``walk``
        call and return their table.

        The kernels count the state after every ``spacing``-th step under
        the key (u * n + v + 1) * (n + 1) + k for hole (u, v), or k when
        perfect, and list each key as it is first seen; the table is decoded
        from them in that order.
        """
        if not 1 <= spacing <= MAX_STEPS:
            raise ValueError(f"sample spacing must be in [1, 2^63 - 1], got {spacing}")
        if samples < 0:
            raise ValueError(f"samples must be nonnegative, got {samples}")
        st = self._state
        tallies, seen = self._tallies, self._seen
        for key in seen[: st.nseen]:
            tallies[key] = 0
        st.nseen = 0
        st.spacing = st.countdown = spacing
        try:
            self.walk(spacing * samples)
        finally:
            st.spacing, st.countdown = 0, -1
        n = self.n
        stats = PhaseStats()
        for key in seen[: st.nseen]:
            cell, k = divmod(key, n + 1)
            stats.record(None if cell == 0 else divmod(cell - 1, n), k, float(tallies[key]))
        return stats

    def walk(self, steps: int) -> None:
        """Advance the chain by ``steps`` Metropolis transitions, at most
        ``MAX_STEPS``."""
        if steps < 0:
            raise ValueError(f"steps must be nonnegative, got {steps}")
        if steps > MAX_STEPS:
            raise ValueError(f"steps must be at most 2^63 - 1, got {steps}")
        draws = self.draws
        st = self._state
        kernel = self._kernel
        st.left = steps
        try:
            kernel(st)
            while st.left > 0:
                (draws.refill_edge, draws.refill_vert, draws.refill_unit)[st.need]()
                kernel(st)
        finally:
            # The struct holds the steps that the kernels have taken, also
            # when an exception cut this loop short (a signal handler run as
            # a kernel call returns, a refill that raises).
            self.steps_taken += steps - st.left

    def _python_walk(self, st: _WalkState) -> None:
        """The ``walk`` of _walk.c in Python: the same contract, step for step.

        It reads the draw blocks in place, through their views, and a
        used-up block raises ``IndexError`` at its ``size``. Its step loop
        works on local copies of everything else (lists index faster than
        arrays) and writes nothing the sampler keeps; the one store of the
        call comes after it. So an exception raised inside the loop leaves
        the sampler as the call found it.
        """
        left, hu, hv, k, countdown = st.left, st.hu, st.hv, st.k, st.countdown
        if left <= 0:
            return
        draws = self.draws
        size = draws.size
        positions = draws.positions
        ei, vi, ui = positions
        ebuf, vbuf, ubuf = draws.edge_buf, draws.vert_buf, draws.unit_buf
        n = self.n
        nn = n * n
        cube = nn * n
        # Where the row-move and column-move parts of the acceptance table
        # put their dk = 0 entries.
        row_moves = 2 * nn + cube
        column_moves = 2 * nn + 4 * cube
        r2c, c2r, edge = self.row_to_col.tolist(), self.col_to_row.tolist(), self._edges.tolist()
        table = self._accept
        spacing = st.spacing
        # The index of the step after which the next sample is tallied; the
        # countdown is negative, so never, while nothing is tallied.
        mark = countdown - 1
        # Sample counts by key, in first-seen order: as many entries as
        # distinct keys, however many samples the call takes.
        samples = {}
        count = samples.get

        try:
            for taken in range(left):
                if hu < 0:
                    # Perfect: drop a uniformly chosen matched pair.
                    u = ebuf[ei]
                    v = r2c[u]
                    dk = edge[u * n + v] - 1
                    ratio = table[u * n + v]
                    if ratio < 0:
                        accept = True
                    else:
                        accept = ubuf[ui] < ratio
                        ui += 1
                    ei += 1
                    if accept:
                        r2c[u] = -1
                        c2r[v] = -1
                        hu = u
                        hv = v
                        k += dk
                else:
                    x = vbuf[vi]
                    if x == hu or x - n == hv:
                        # Hole row or hole column: complete the hole pair.
                        dk = 1 - edge[hu * n + hv]
                        ratio = table[nn + hu * n + hv]
                        if ratio < 0:
                            accept = True
                        else:
                            accept = ubuf[ui] < ratio
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
                        ratio = table[row_moves + dk * cube + hu * nn + z * n + hv]
                        if ratio < 0:
                            accept = True
                        else:
                            accept = ubuf[ui] < ratio
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
                        ratio = table[column_moves + dk * cube + w * nn + hu * n + hv]
                        if ratio < 0:
                            accept = True
                        else:
                            accept = ubuf[ui] < ratio
                            ui += 1
                        if accept:
                            r2c[w] = -1
                            r2c[hu] = xc
                            c2r[xc] = hu
                            hu = w
                            k += dk
                    vi += 1
                if taken == mark:
                    key = (hu * n + hv + 1) * (n + 1) + k if hu >= 0 else k
                    samples[key] = count(key, 0) + 1
                    mark += spacing
        except IndexError:
            # A draw block is used up: stop before this step, which has
            # consumed no draw yet.
            if hu < 0 and ei == size:
                st.need = _NEED_EDGE
            elif hu >= 0 and vi == size:
                st.need = _NEED_VERT
            elif ui == size:
                st.need = _NEED_UNIT
            else:
                raise
        else:
            taken = left

        self.row_to_col[:] = array("q", r2c)
        self.col_to_row[:] = array("q", c2r)
        positions[0], positions[1], positions[2] = ei, vi, ui
        st.left, st.hu, st.hv, st.k, st.countdown = left - taken, hu, hv, k, mark + 1 - taken
        tallies, seen, nseen = self._tallies, self._seen, st.nseen
        for key, added in samples.items():
            if tallies[key] == 0:
                seen[nseen] = key
                nseen += 1
            tallies[key] += added
        st.nseen = nseen
