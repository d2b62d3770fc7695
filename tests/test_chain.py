import functools
import hashlib
import itertools
import math
import sys
from array import array

import numpy as np
import pytest

from permlab import Matrix, generate_random, parse_matrix
from permlab import chain
from permlab.chain import (
    ChainSampler,
    WeightTable,
    build_transition_matrix,
    enumerate_states,
    exact_stationary,
    lambda_edges,
    log_weight,
    propose,
    state_key,
    step,
)
from permlab.matrix import Matching, find_perfect_matching
from permlab.params import log_factorial, state_space_size
from permlab.rng import BufferedDraws

FIG = parse_matrix("3\n101\n110\n101\n")


class ScriptedDraws:
    """Hand-fed draw source for exercising single transitions."""

    def __init__(self, edges=(), vertices=(), units=()):
        self.edges = list(edges)
        self.vertices = list(vertices)
        self.units = list(units)

    def edge_index(self):
        return self.edges.pop(0)

    def vertex_index(self):
        return self.vertices.pop(0)

    def unit(self):
        return self.units.pop(0)


def uniform_table(n, log_lambda=0.0, log_w=0.0, edges=None):
    flat_edges = tuple(edges) if edges is not None else (1,) * (n * n)
    return WeightTable(n, log_lambda, (log_w,) * (n * n), flat_edges)


def random_weight_table(n, seed, log_lambda):
    rng = np.random.Generator(np.random.PCG64(seed))
    log_w = tuple(float(x) for x in rng.uniform(-0.7, 0.7, size=n * n))
    return WeightTable(n, log_lambda, log_w, (1,) * (n * n))


def test_log_weight_perfect_graph_edges_is_zero():
    wt = WeightTable.initial(FIG)
    pm = find_perfect_matching(FIG)
    assert log_weight(pm, wt) == 0.0


def test_log_weight_near_perfect_initial_is_log_n():
    wt = WeightTable.initial(parse_matrix("3\n111\n111\n111\n"))
    near = Matching(3, frozenset({(1, 1), (2, 2)}), hole=(0, 0))
    assert log_weight(near, wt) == pytest.approx(math.log(3))


def test_log_weight_counts_lambda_edges():
    zero = parse_matrix("3\n000\n000\n000\n")
    wt = WeightTable.initial(zero).with_updates(log_lambda=math.log(0.25))
    perm = Matching(3, frozenset({(0, 1), (1, 2), (2, 0)}))
    assert log_weight(perm, wt) == pytest.approx(3 * math.log(0.25))


def test_log_weight_matches_linear_product():
    for seed in range(20):
        n = 2 + seed % 3
        m = generate_random(n, (seed * 5) % (n * n + 1), seed=seed)
        lam = max(1 / math.factorial(n), 0.1 * (seed % 9 + 1))
        wt = WeightTable.initial(m).with_updates(log_lambda=math.log(lam))
        for state in enumerate_states(n):
            k = lambda_edges(state, wt)
            direct = lam**k
            if state.hole is not None:
                direct *= n
            assert math.exp(log_weight(state, wt)) == pytest.approx(direct, rel=1e-12)


def test_propose_perfect_removes_drawn_row_pair():
    perfect = Matching(2, frozenset({(0, 0), (1, 1)}))
    for target, expected_hole in ((0, (0, 0)), (1, (1, 1))):
        proposal = propose(perfect, ScriptedDraws(edges=[target]))
        assert proposal.hole == expected_hole
        assert len(proposal.pairs) == 1


def test_propose_hole_vertex_completes_matching():
    near = Matching(2, frozenset({(1, 1)}), hole=(0, 0))
    for x in (0, 2):  # row 0 is the hole row, vertex 2 is hole column 0
        proposal = propose(near, ScriptedDraws(vertices=[x]))
        assert proposal.is_perfect
        assert proposal.pairs == frozenset({(0, 0), (1, 1)})


def test_propose_matched_column_slides_hole_row():
    # Hole (0,0); drawing matched column 1 swaps (1,1) for (0,1).
    near = Matching(2, frozenset({(1, 1)}), hole=(0, 0))
    proposal = propose(near, ScriptedDraws(vertices=[3]))
    assert proposal.pairs == frozenset({(0, 1)})
    assert proposal.hole == (1, 0)


def test_propose_matched_row_slides_hole_column():
    near = Matching(2, frozenset({(1, 1)}), hole=(0, 0))
    proposal = propose(near, ScriptedDraws(vertices=[1]))
    assert proposal.pairs == frozenset({(1, 0)})
    assert proposal.hole == (0, 1)


def test_step_uniform_weights_always_accepts():
    wt = uniform_table(2)
    state = Matching(2, frozenset({(0, 0), (1, 1)}))
    moved = step(state, wt, ScriptedDraws(edges=[0]))
    assert moved.hole == (0, 0)


def test_step_rejects_on_high_unit_draw():
    # Moving perfect -> near-perfect with tiny hole weights has delta << 0.
    wt = uniform_table(2, log_w=-30.0)
    state = Matching(2, frozenset({(0, 0), (1, 1)}))
    stayed = step(state, wt, ScriptedDraws(edges=[0], units=[0.9999]))
    assert stayed is state
    moved = step(state, wt, ScriptedDraws(edges=[0], units=[1e-30]))
    assert not moved.is_perfect


def test_enumerate_states_counts():
    # Distinct matchings number (n+1)!: n! perfect plus n^2 (n-1)! near.
    for n in range(1, 7):
        states = enumerate_states(n)
        assert len(states) == math.factorial(n + 1)
        assert sum(state.is_perfect for state in states) == math.factorial(n)


def test_enumerate_states_distinct_and_valid():
    # Strictly increasing row assignments: walk_states' binary search and
    # _state_graph rely on the order.
    for n in range(1, 7):
        states = enumerate_states(n)
        keys = [state_key(s) for s in states]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        for state in states:
            state.validate()


def test_enumerate_states_guard():
    with pytest.raises(ValueError):
        enumerate_states(7)


def test_initial_weight_total_reconciles_with_headline_size():
    # At activity 1 with every hole weight n, the total weight over all
    # distinct states equals (n^2+1) n! exactly.
    for n in (1, 2, 3, 4):
        m = generate_random(n, n * n // 2, seed=n)
        wt = WeightTable.initial(m)
        total = sum(math.exp(log_weight(s, wt)) for s in enumerate_states(n))
        assert total == pytest.approx(state_space_size(n), rel=1e-12)


def weight_settings(n, seed=11):
    return [
        uniform_table(n),
        WeightTable.initial(parse_matrix(f"{n}\n" + ("1" * n + "\n") * n)),
        random_weight_table(n, seed, math.log(0.1)),
    ]


def test_transition_matrix_row_stochastic():
    for n in (2, 3):
        for wt in weight_settings(n):
            _, matrix = build_transition_matrix(n, wt)
            assert np.abs(matrix.sum(axis=1) - 1).max() < 1e-12


def test_detailed_balance():
    for n in (2, 3):
        for wt in weight_settings(n):
            states, matrix = build_transition_matrix(n, wt)
            weights = np.array([math.exp(log_weight(s, wt)) for s in states])
            flux = weights[:, None] * matrix
            asymmetry = np.abs(flux - flux.T)
            scale = np.maximum(np.abs(flux), np.abs(flux.T))
            mask = scale > 0
            assert (asymmetry[mask] / scale[mask]).max() < 1e-9


def test_irreducibility():
    # With positive activity every state reaches every other state.
    for n in (2, 3, 4):
        wt = uniform_table(n, log_lambda=math.log(0.2))
        _, matrix = build_transition_matrix(n, wt)
        reach = (matrix > 0) | np.eye(len(matrix), dtype=bool)
        for _ in range(len(matrix).bit_length()):
            reach = (reach.astype(float) @ reach.astype(float)) > 0
        assert reach.all()


def test_exact_stationary_is_fixed_by_the_transition_matrix():
    # pi is w / Z in closed form; the explicit matrix of propose and the
    # acceptance filter must leave it where it is.
    for n in (2, 3, 4):
        for wt in weight_settings(n):
            states, pi = exact_stationary(n, wt)
            matrix_states, matrix = build_transition_matrix(n, wt)
            assert states == matrix_states
            assert np.abs(pi @ matrix - pi).sum() < 1e-12


def test_exact_stationary_uniform_case():
    # All weights 1: every one of the six distinct states gets mass 1/6.
    states, pi = exact_stationary(2, uniform_table(2))
    assert len(states) == 6
    assert np.abs(pi - 1 / 6).max() < 1e-12


def test_sampler_matches_reference_step_replay():
    m = FIG
    wt = WeightTable.initial(m).with_updates(log_lambda=math.log(0.3))
    start = find_perfect_matching(m)
    sampler = ChainSampler(wt, start, BufferedDraws(42, 3))
    reference_draws = BufferedDraws(42, 3)
    current = start
    for _ in range(4000):
        sampler.walk(1)
        current = step(current, wt, reference_draws)
        assert state_key(sampler.state()) == state_key(current)


def test_sampler_rejects_a_weight_table_of_the_wrong_size():
    # The compiled kernel indexes the tables without bounds checks.
    wt = WeightTable.initial(FIG)
    start = find_perfect_matching(FIG)
    sampler = ChainSampler(wt, start, BufferedDraws(0, 3))
    short = wt.with_updates(log_w=[0.0] * 8)
    with pytest.raises(ValueError, match="9 entries"):
        ChainSampler(short, start, BufferedDraws(0, 3))
    with pytest.raises(ValueError, match="9 entries"):
        sampler.set_weights(short)


@pytest.mark.parametrize("n", [4, 8])
def test_a_sampler_builds_one_acceptance_table_per_stage(n, monkeypatch):
    # The sampler keeps the table that acceptance_table returns, and at
    # n <= 6 fills walk_states' entries from the same one.
    tables = []
    build = chain.acceptance_table

    def spy(wt):
        tables.append(wt)
        return build(wt)

    monkeypatch.setattr(chain, "acceptance_table", spy)
    m = banded_matrix(n)
    wt = mixed_weights(m, -0.7)
    sampler = ChainSampler(wt, find_perfect_matching(m), BufferedDraws(0, n))
    assert tables == [wt]
    sampler.set_weights(wt.with_updates(log_lambda=-1.0))
    assert len(tables) == 2


@pytest.mark.parametrize("n", range(1, 9))
def test_a_sampler_runs_the_kernel_for_its_size(n, monkeypatch):
    # The three kernels take the same steps, so a wrong choice would show
    # only as lost speed.
    if chain._walk_kernel() is None or chain._state_walk_kernel() is None:
        pytest.skip("the compiled walk kernels cannot be built or loaded here")
    m = banded_matrix(n)

    def kernel():
        return ChainSampler(WeightTable.initial(m), find_perfect_matching(m), BufferedDraws(0, n))._kernel

    assert kernel() is (chain._state_walk_kernel() if n <= 6 else chain._walk_kernel())
    monkeypatch.setattr(chain, "_state_walk_kernel", lambda: None)
    monkeypatch.setattr(chain, "_walk_kernel", lambda: None)
    assert kernel().__func__ is ChainSampler._python_walk


def test_sampler_incremental_count_matches_recount():
    m = generate_random(4, 9, seed=2)
    pm = find_perfect_matching(m)
    assert pm is not None
    wt = WeightTable.initial(m).with_updates(log_lambda=math.log(0.4))
    sampler = ChainSampler(wt, pm, BufferedDraws(5, 4))
    sampler.walk(100_000)
    assert sampler.lambda_count == lambda_edges(sampler.state(), wt)


def test_sampler_empirical_occupation_matches_stationary():
    n = 2
    wt = uniform_table(n)
    states, pi = exact_stationary(n, wt)
    index = {state_key(s): i for i, s in enumerate(states)}
    sampler = ChainSampler(wt, Matching(2, frozenset({(0, 0), (1, 1)})), BufferedDraws(7, n))
    counts = np.zeros(len(states))
    for _ in range(200_000):
        sampler.walk(1)
        counts[index[state_key(sampler.state())]] += 1
    tv = 0.5 * np.abs(counts / counts.sum() - pi).sum()
    assert tv < 0.01


GOLDEN_TRAJECTORIES = pytest.mark.parametrize(
    "n, digest",
    [(4, "e4b108be9676a518"), (8, "1a5cd38e89ffbc27"), (16, "e3f54d96f513cafc")],
)


def golden_trajectory_digest(n):
    m = generate_random(n, 3 * n * n // 4, seed=n)
    wt = WeightTable.initial(m).with_updates(log_lambda=-log_factorial(n) / 2)
    sampler = ChainSampler(wt, find_perfect_matching(m), BufferedDraws(n, n))
    h = hashlib.sha256()
    for _ in range(100_000):
        sampler.walk(1)
        h.update(repr(sampler_state(sampler)).encode())
    return h.hexdigest()[:16]


@GOLDEN_TRAJECTORIES
def test_sampler_state_golden_pin(n, digest, walk_kernel):
    # Fixes the seed-to-trajectory mapping across refactors and numpy
    # upgrades: a drift in the PCG64 streams or in the move rules changes
    # the hash of the first 10^5 states.
    assert golden_trajectory_digest(n) == digest


@pytest.mark.parametrize("buffer_size", [1, 3])
def test_walk_matches_reference_step_across_refills(walk_kernel, buffer_size):
    # One- and three-draw buffers run dry every step or every few steps in
    # every branch, so walk suspends and refills often, including after a
    # step's proposal draw has been read and its acceptance draw is missing.
    # Hole weights of both signs make every move kind, removal included,
    # need acceptance draws, and accept some of each without one.
    m = banded_matrix(5)
    wt = mixed_weights(m, math.log(0.3))
    start = find_perfect_matching(m)
    sampler = ChainSampler(wt, start, BufferedDraws(42, 5, buffer_size=buffer_size))
    # The compiled kernel reads a unit value on every step, also when no
    # draw is due and the block is used up or was never filled, where it
    # reads the spare entry past the block's end. 2^53 in the block and in
    # that entry, above every threshold, rejects any move it decides, so the
    # trajectory shows if one ever does; the draw positions show a step
    # without a draw that stops for a refill.
    sampler.draws.unit_buf.obj.base[:] = 2**53
    draws = BufferedDraws(42, 5, buffer_size=buffer_size)
    current = start
    for length in [1, 2, 3, 5, 13, 16, 17, 64, 200] * 40:
        sampler.walk(length)
        for _ in range(length):
            current = step(current, wt, draws)
        assert sampler.state() == current
        assert sampler.lambda_count == lambda_edges(current, wt)
        assert draw_positions(sampler.draws) == draw_positions(draws)


def draw_positions(draws):
    return draws.edge_pos, draws.vert_pos, draws.unit_pos


def sampler_state(sampler):
    return sampler.row_to_col.tolist(), sampler.hole(), sampler.lambda_count


def banded_matrix(n):
    rows = [[1 if (j - i) % n in (0, 1, 3) else 0 for j in range(n)] for i in range(n)]
    return Matrix.from_rows(rows)


def mixed_weights(m, log_lambda):
    """Hole weights between e^-2 and e^2, so that no move is always accepted."""
    return WeightTable.initial(m).with_updates(
        log_lambda=log_lambda, log_w=[2 * math.sin(3 * i) for i in range(m.n * m.n)]
    )


def with_holes(wt, holes):
    """``wt`` with the hole log-weights of the cells in ``holes`` replaced by its values."""
    return wt.with_updates(log_w=[holes.get(cell, w) for cell, w in enumerate(wt.log_w)])


def walk_fingerprint(n, log_lambda, buffer_size, holes=None):
    """Hashes of the trajectory, the draw positions and the tallied tables
    of a mixed run, whose hole weights ``holes`` overrides at both stages."""
    holes = holes or {}
    m = generate_random(n, -(-3 * n * n // 4), seed=n)
    wt = with_holes(mixed_weights(m, log_lambda), holes)
    draws = BufferedDraws(7 * n, n, buffer_size=buffer_size)
    sampler = ChainSampler(wt, find_perfect_matching(m), draws)
    hashes = [hashlib.sha256() for _ in range(3)]
    trajectory, positions, tallies = hashes
    for i in range(600):
        sampler.walk(1 + i % 7)
        trajectory.update(repr(sampler_state(sampler)).encode())
        positions.update(repr(draw_positions(draws)).encode())
    for spacing in (1, 3):
        tallies.update(repr(sampler.tally(spacing, 700)).encode())
    # Halfway, a second stage: a kernel left reading the first stage's
    # entries shows in the rest of the trajectory.
    sampler.set_weights(
        with_holes(
            wt.with_updates(log_lambda=log_lambda / 2 - 0.5, log_w=[2 * math.cos(5 * i) for i in range(n * n)]),
            holes,
        )
    )
    sampler.walk(5_000)
    trajectory.update(repr(sampler_state(sampler)).encode())
    positions.update(repr(draw_positions(draws)).encode())
    return [h.hexdigest() for h in hashes]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 16, 32])
def test_compiled_walk_matches_python_walk(n, monkeypatch):
    # At n = 1 an edge draw consumes no generator output. At n = 32 the
    # thresholds reach sizes that no benchmark workload walks.
    if chain._walk_kernel() is None:
        pytest.skip("the compiled walk kernel cannot be built or loaded here")
    settings = [
        (log_lambda, buffer_size)
        for log_lambda in (0.0, -1.0, -log_factorial(n) / 2)
        for buffer_size in (1 << 16, 3)
    ]
    # walk_states runs up to n = STATE_WALK_LIMIT and walk above it; then
    # walk is forced at every n.
    compiled = [walk_fingerprint(n, *setting) for setting in settings]
    monkeypatch.setattr(chain, "_state_walk_kernel", lambda: None)
    assert [walk_fingerprint(n, *setting) for setting in settings] == compiled
    monkeypatch.setattr(chain, "_walk_kernel", lambda: None)
    assert [walk_fingerprint(n, *setting) for setting in settings] == compiled
    # A host without cc runs the Python kernel on draws that numpy fills,
    # with tables that Python builds.
    monkeypatch.setattr("permlab.rng._refill_kernels", lambda: None)
    monkeypatch.setattr(chain, "_threshold_kernel", lambda: None)
    assert [walk_fingerprint(n, *setting) for setting in settings] == compiled


# Two +inf hole weights in one row, a -inf and a NaN: moves between the
# +inf holes have delta inf - inf, and every move to or from the NaN hole
# has a NaN delta too.
NON_FINITE_HOLES = {1: math.inf, 2: math.inf, 6: -math.inf, 11: math.nan}


@pytest.mark.parametrize("n", [4, 8])
def test_non_finite_weights_walk_alike_on_every_kernel(n, monkeypatch):
    # A NaN delta gives a 0 entry, which takes a draw and rejects, as the
    # reference step's float compare with a NaN ratio rejects.
    wt = with_holes(mixed_weights(generate_random(n, -(-3 * n * n // 4), seed=n), -1.0), NON_FINITE_HOLES)
    table = chain.acceptance_table(wt)
    assert 0 in table and chain.NO_DRAW in table
    if chain._walk_kernel() is None:
        pytest.skip("the compiled walk kernel cannot be built or loaded here")
    settings = [(-1.0, 1 << 16, NON_FINITE_HOLES), (-1.0, 3, NON_FINITE_HOLES)]
    compiled = [walk_fingerprint(n, *setting) for setting in settings]
    monkeypatch.setattr(chain, "_state_walk_kernel", lambda: None)
    assert [walk_fingerprint(n, *setting) for setting in settings] == compiled
    monkeypatch.setattr(chain, "_walk_kernel", lambda: None)
    assert [walk_fingerprint(n, *setting) for setting in settings] == compiled


UNIT_RANGE = 2**53


def threshold(r):
    """The acceptance entry of a ratio r = exp(delta) in [0, 1]: ceil(2^53 r)."""
    return math.ceil(math.ldexp(r, 53))


def units_around(t):
    """The unit draws 0, t - 1, t, t + 1 and 2^53 - 1 that lie in [0, 2^53)."""
    return sorted(u for u in {0, t - 1, t, t + 1, UNIT_RANGE - 1} if 0 <= u < UNIT_RANGE)


# Ratios at which an integer threshold could part from the float compare:
# 0, subnormals, the least normal and its lower neighbour, k * 2^-53 with
# both neighbours, 1 - 2^-53 and 1.0.
EDGE_RATIOS = sorted(
    {0.0, 5e-324, 1e-310, sys.float_info.min, math.nextafter(sys.float_info.min, 0.0), 1 - 2**-53, 1.0}
    | {
        value
        for k in (1, 2, 3, 1000, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 2)
        for value in (math.nextafter(k * 2**-53, 0.0), k * 2**-53, math.nextafter(k * 2**-53, 2.0))
    }
)


def test_integer_thresholds_decide_as_the_float_compare(monkeypatch):
    # The reference step accepts when u * 2^-53 < r; every walk kernel when
    # u < T, the compiled ones unsigned, so NO_DRAW (2^64 - 1 there)
    # accepts every draw.
    for r in EDGE_RATIOS:
        t = threshold(r)
        for u in units_around(t):
            assert (u < t) == (u * 2**-53 < r), (r, u)
    assert all(u < chain.NO_DRAW % 2**64 for u in units_around(0))
    # Through the tables: an instance with every edge present has drop
    # entries of delta = the hole log-weight, so ratio exp(delta).
    n = 6
    log_w = [math.log(r) if r > 0.0 else -math.inf for r in EDGE_RATIOS] + [-1e-17, -720.0, -745.0, math.nan]
    log_w += [-0.5] * (n * n - len(log_w))
    wt = WeightTable(n, -1.0, tuple(log_w), (1,) * (n * n))
    tables = [chain.acceptance_table(wt)]
    monkeypatch.setattr(chain, "_threshold_kernel", lambda: None)
    tables.append(chain.acceptance_table(wt))
    for table in tables:
        assert {0, 1, UNIT_RANGE, chain.NO_DRAW} <= set(table[: n * n].tolist())
        for delta, t in zip(log_w, table.tolist()):
            if delta >= 0.0:
                assert t == chain.NO_DRAW
                continue
            r = math.exp(delta)
            assert t == (0 if math.isnan(r) else threshold(r))
            for u in units_around(t):
                assert (u < t) == (u * 2**-53 < r), (delta, u)


def builder_weights(n):
    """Hole log-weights of both signs whose deltas include -0.0, NaN (an
    infinite weight less itself), and exp underflowing to 0 (-800) and to
    a subnormal (-720); lambda = 1/2 and a sparse instance."""
    generator = np.random.Generator(np.random.PCG64(n))
    log_w = generator.uniform(-3.0, 3.0, size=n * n)
    log_w[:5] = [-0.0, math.inf, 0.0, -720.0, -800.0]
    edges = tuple(int(x) for x in generator.integers(0, 2, size=n * n))
    return WeightTable(n, math.log(0.5), tuple(float(x) for x in log_w), edges)


@pytest.mark.parametrize("n", [4, 16, 64])
def test_compiled_thresholds_match_the_python_builder_byte_for_byte(n, monkeypatch):
    if chain._threshold_kernel() is None:
        pytest.skip("the compiled threshold builder cannot be built or loaded here")
    wt = builder_weights(n)
    compiled = chain.acceptance_table(wt)
    monkeypatch.setattr(chain, "_threshold_kernel", lambda: None)
    python = chain.acceptance_table(wt)
    assert compiled.dtype == python.dtype == np.int64
    assert compiled.tobytes() == python.tobytes()
    assert {0, 1, chain.NO_DRAW} <= set(compiled.tolist())
    assert compiled.min() == chain.NO_DRAW and compiled.max() <= UNIT_RANGE


# Hole log-weights whose entries are 2^53 (exp(-1e-17) = 1.0), 2^52 (0.5), 1
# (the subnormals exp(-720) and exp(-745)) and 0 (exp(-inf)), besides
# NO_DRAW and their products with lambda = 1/2.
TIE_HOLE_LOG_WEIGHTS = [0.0, -1e-17, -720.0, -math.inf, math.log(0.5), -745.0]


def tie_units(table):
    """The unit draws 0, T - 1, T, T + 1 and 2^53 - 1 around every entry T
    of ``table`` but NO_DRAW: the draws at which the integer test could part
    from the reference step's float compare."""
    return sorted({u for t in set(table.tolist()) - {chain.NO_DRAW} for u in units_around(t)})


def scripted_units(draws, values):
    """Make every unit refill of ``draws`` write the next ``size`` of
    ``values``, taken in turn and over again."""
    cycle = itertools.cycle(values)
    block = draws.unit_buf.obj

    def refill_unit():
        block[:] = [next(cycle) for _ in range(draws.size)]
        draws.positions[2] = 0
        return draws.unit_buf

    draws.refill_unit = refill_unit


def tie_trajectory(n, reference=False):
    """The state and draw positions after each of 20,000 single steps on
    the weights of ``TIE_HOLE_LOG_WEIGHTS``, with unit draws from
    ``tie_units``: steps of ``walk``, or of ``step`` with ``reference``."""
    m = generate_random(n, 3 * n * n // 4, seed=n)
    log_w = list(itertools.islice(itertools.cycle(TIE_HOLE_LOG_WEIGHTS), n * n))
    wt = WeightTable.initial(m).with_updates(log_lambda=math.log(0.5), log_w=log_w)
    draws = BufferedDraws(n, n, buffer_size=5)
    units = tie_units(chain.acceptance_table(wt))
    np.random.Generator(np.random.PCG64(n)).shuffle(units)
    scripted_units(draws, units)
    state = find_perfect_matching(m)
    trajectory = []
    if reference:
        for _ in range(20_000):
            state = step(state, wt, draws)
            trajectory.append(((state.row_to_col(), state.hole, lambda_edges(state, wt)), draw_positions(draws)))
        return trajectory
    sampler = ChainSampler(wt, state, draws)
    for _ in range(20_000):
        sampler.walk(1)
        trajectory.append((sampler_state(sampler), draw_positions(draws)))
    return trajectory


@pytest.mark.parametrize("n", [4, 5])
def test_ties_and_edges_decide_alike_on_every_kernel(n, monkeypatch):
    # A unit draw equal to its threshold rejects, as does one whose scaled
    # value equals its ratio. The draws sit on, above and below the
    # thresholds, which include 0, 1, 2^52 and 2^53, so ties and one-unit
    # misses are frequent. The reference step, which sums each delta as
    # the table does, takes the same steps on the same draws.
    if chain._walk_kernel() is None:
        pytest.skip("the compiled walk kernel cannot be built or loaded here")
    states = tie_trajectory(n)
    monkeypatch.setattr(chain, "_state_walk_kernel", lambda: None)
    compiled = tie_trajectory(n)
    monkeypatch.setattr(chain, "_walk_kernel", lambda: None)
    python = tie_trajectory(n)
    reference = tie_trajectory(n, reference=True)
    for step_index, (a, b, c, d) in enumerate(zip(states, compiled, python, reference)):
        assert a == b == c == d, step_index
    # The walk moves: at least a tenth of the steps change the state.
    assert sum(a[0] != b[0] for a, b in zip(python, python[1:])) > 2_000


def interrupt_the_fourth_refill(sampler, monkeypatch, refilled=False):
    """Make the fourth refill of the sampler's draws, whichever buffer it is
    for, raise as Ctrl-C would: instead of refilling, or once refilled, as a
    signal handler that CPython runs as the refill returns would."""
    draws = sampler.draws
    refills = 0

    def interrupting(refill):
        def wrapped():
            nonlocal refills
            refills += 1
            if refills == 4 and not refilled:
                raise KeyboardInterrupt
            buffer = refill()
            if refills == 4:
                raise KeyboardInterrupt
            return buffer

        return wrapped

    for name in ("refill_edge", "refill_vert", "refill_unit"):
        monkeypatch.setattr(draws, name, interrupting(getattr(draws, name)))


def interrupt_the_fourth_kernel_return(sampler, monkeypatch):
    """Make the sampler's fourth kernel call raise just after the kernel
    returns, as a signal handler that CPython runs then would."""
    kernel = sampler._kernel
    calls = 0

    def interrupting(st):
        nonlocal calls
        kernel(st)
        calls += 1
        if calls == 4:
            raise KeyboardInterrupt

    monkeypatch.setattr(sampler, "_kernel", interrupting)


class InterruptingTable(array):
    """An acceptance table whose ``reads``-th read raises as Ctrl-C would."""

    def __getitem__(self, index):
        self.reads -= 1
        if self.reads == 0:
            raise KeyboardInterrupt
        return super().__getitem__(index)


def interrupt_a_table_read(sampler, monkeypatch):
    """Make the Python kernel's 1999th read of the acceptance table raise,
    in the middle of a kernel call: the 15th step of the 125th of a loop of
    16-step walks."""
    table = InterruptingTable("q", sampler._accept)
    table.reads = 1999
    monkeypatch.setattr(sampler, "_accept", table)


INTERRUPTS = {
    "refill": interrupt_the_fourth_refill,
    "refill-return": functools.partial(interrupt_the_fourth_refill, refilled=True),
    "kernel-return": interrupt_the_fourth_kernel_return,
    "table-read": interrupt_a_table_read,
}


@pytest.mark.parametrize(
    "walk_kernel, interrupt",
    [
        ("states", "refill"),
        ("compiled", "refill"),
        ("python", "refill"),
        ("states", "refill-return"),
        ("compiled", "refill-return"),
        ("python", "refill-return"),
        ("states", "kernel-return"),
        ("compiled", "kernel-return"),
        ("python", "kernel-return"),
        ("python", "table-read"),
    ],
    indirect=["walk_kernel"],
)
def test_interrupted_walk_keeps_the_steps_and_samples_it_took(walk_kernel, interrupt, monkeypatch):
    # An exception raised while walk runs leaves the sampler exactly where
    # its kernels last stored it, where a twin that walks the same steps
    # stands, and carries nothing into the next tally: in a long tally, in
    # a loop of 16-step walks and in a loop of single steps.
    m = banded_matrix(5)
    wt = mixed_weights(m, -0.7)

    def assert_same_chain(sampler, twin):
        assert sampler_state(sampler) == sampler_state(twin)
        assert draw_positions(sampler.draws) == draw_positions(twin.draws)
        assert sampler.steps_taken == twin.steps_taken
        sampler.state().validate()

    def tally(sampler):
        sampler.tally(3, 1_000)

    def walk_16(sampler):
        for _ in range(200):
            sampler.walk(16)

    def walk_1(sampler):
        for _ in range(3_000):
            sampler.walk(1)

    for run in (tally, walk_16, walk_1):
        sampler, twin = (
            ChainSampler(wt, find_perfect_matching(m), BufferedDraws(3, 5, buffer_size=50))
            for _ in range(2)
        )
        INTERRUPTS[interrupt](sampler, monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            run(sampler)
        taken = sampler.steps_taken
        assert 0 < taken < 3_000
        twin.walk(taken)
        if interrupt in ("refill-return", "table-read"):
            # The sampler has refilled a buffer, or given up a Python kernel
            # call that came right after a refill, which the twin, stopping
            # earlier, has not made yet: the draw positions agree once both
            # draw further.
            assert sampler_state(sampler) == sampler_state(twin)
            sampler.state().validate()
        else:
            assert_same_chain(sampler, twin)
        sampler.walk(500)
        twin.walk(500)
        assert_same_chain(sampler, twin)
        samples = sampler.tally(3, 100)
        assert samples == twin.tally(3, 100)
        assert samples.total == 100
        for _ in range(10):
            sampler.walk(10)
            twin.walk(10)
            assert_same_chain(sampler, twin)


def test_a_tally_after_an_interrupted_tally_counts_only_its_own_samples(walk_kernel, monkeypatch):
    # The interrupted tally counted samples that nothing can read; the next
    # tally drops them and matches a twin that never tallied before it.
    m = banded_matrix(5)
    wt = mixed_weights(m, -0.7)
    sampler, twin = (
        ChainSampler(wt, find_perfect_matching(m), BufferedDraws(3, 5, buffer_size=50)) for _ in range(2)
    )
    interrupt_the_fourth_refill(sampler, monkeypatch)
    with pytest.raises(KeyboardInterrupt):
        sampler.tally(3, 1_000)
    # At least one sample was counted before the interrupt.
    assert 3 <= sampler.steps_taken < 3_000
    twin.walk(sampler.steps_taken)
    stats, expected = sampler.tally(3, 500), twin.tally(3, 500)
    assert stats.total == 500
    # The same tables, in the same insertion order.
    assert repr(stats) == repr(expected)


def test_buffered_draws_refuse_an_empty_buffer():
    # Every refill would return no draws, so walk would resume forever.
    for size in (0, -1):
        with pytest.raises(ValueError, match="buffer_size"):
            BufferedDraws(0, 2, buffer_size=size)


def test_negative_step_and_sample_counts_are_refused(walk_kernel):
    # Zero stays allowed: a stage's burn-in can be 0 steps.
    m = banded_matrix(4)
    sampler = ChainSampler(WeightTable.initial(m), find_perfect_matching(m), BufferedDraws(0, 4))
    with pytest.raises(ValueError, match="steps must be nonnegative, got -3"):
        sampler.walk(-3)
    with pytest.raises(ValueError, match="samples must be nonnegative, got -5"):
        sampler.tally(1, -5)
    sampler.walk(0)
    assert sampler.tally(1, 0).total == 0
    assert sampler.steps_taken == 0


def reference_table_index(state, x, dk, n):
    """Where acceptance_table's docstring puts the entry of the proposal that
    draw ``x`` makes from ``state``, whose non-instance pair count changes by ``dk``."""
    nn, cube = n * n, n**3
    assignment = state.row_to_col()
    if state.is_perfect:
        return x * n + assignment[x]
    hu, hv = state.hole
    if x == hu or x - n == hv:
        return nn + hu * n + hv
    if x < n:
        return 2 * nn + (dk + 1) * cube + hu * nn + assignment[x] * n + hv
    w = assignment.index(x - n)
    return 2 * nn + 3 * cube + (dk + 1) * cube + w * nn + hu * n + hv


@pytest.mark.parametrize("log_lambda", [0.0, math.log(0.3)])
def test_acceptance_table_matches_the_reference_chain(log_lambda):
    # FIG has non-instance pairs, so dk takes all of -1, 0 and 1, and
    # log_lambda = 0 drops the activity term that log(0.3) keeps. The hole
    # weights make differences of both signs, and some exactly 0 (hole (0, 0)
    # weighs 1).
    n = FIG.n
    wt = mixed_weights(FIG, log_lambda)
    table = chain.acceptance_table(wt)
    assert len(table) == 2 * n * n + 6 * n**3
    for state in enumerate_states(n):
        for x in range(n if state.is_perfect else 2 * n):
            proposal = propose(state, chain._FixedDraw(x))
            difference = log_weight(proposal, wt) - log_weight(state, wt)
            dk = lambda_edges(proposal, wt) - lambda_edges(state, wt)
            entry = table[reference_table_index(state, x, dk, n)]
            if abs(difference) >= 1e-12:
                assert (entry == chain.NO_DRAW) == (difference >= 0.0)
            if entry != chain.NO_DRAW:
                assert entry == pytest.approx(threshold(math.exp(difference)), rel=1e-12, abs=1.0)
