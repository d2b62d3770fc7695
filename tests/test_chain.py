import math

import numpy as np
import pytest

from permlab import (
    ChainSampler,
    Matching,
    WeightTable,
    build_transition_matrix,
    enumerate_states,
    exact_stationary,
    find_perfect_matching,
    generate_random,
    log_weight,
    parse_matrix,
    propose,
    state_space_size,
    step,
)
from permlab.chain import lambda_edges, state_key
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
    assert len(enumerate_states(1)) == 2
    assert len(enumerate_states(2)) == 6
    assert len(enumerate_states(3)) == 24
    assert len(enumerate_states(4)) == 120


def test_enumerate_states_distinct_and_valid():
    states = enumerate_states(3)
    keys = {state_key(s) for s in states}
    assert len(keys) == len(states)
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


def test_exact_stationary_proportional_to_weights():
    for n in (2, 3):
        for wt in weight_settings(n):
            states, pi = exact_stationary(n, wt)
            weights = np.array([math.exp(log_weight(s, wt)) for s in states])
            expected = weights / weights.sum()
            assert np.abs(pi - expected).max() < 1e-9


def test_exact_stationary_uniform_case():
    # All weights 1: every one of the six distinct states gets mass 1/6.
    states, pi = exact_stationary(2, uniform_table(2))
    assert len(states) == 6
    assert np.abs(pi - 1 / 6).max() < 1e-12


def test_exact_stationary_iteration_cap():
    from permlab.chain import StationaryConvergenceError

    with pytest.raises(StationaryConvergenceError):
        exact_stationary(2, uniform_table(2), residual=1e-12, max_iterations=0)


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
