import dataclasses
import math

import pytest

from permlab import (
    Matrix,
    RelaxationFactors,
    compute_params,
    estimate_permanent,
    generate_random,
    parse_matrix,
    permanent_ryser,
)
from permlab import chain, fpras
from permlab.chain import ChainSampler, WeightTable, exact_stationary, lambda_edges
from permlab.fpras import (
    PhaseFailure,
    PhaseStats,
    estimate_from_exact_distribution,
    exact_distribution_stats,
    final_refinement,
    phase_ratio,
    run_phase,
    state_classes,
    update_weights,
)
from permlab.matrix import Matching, find_perfect_matching
from permlab.params import apply_relaxation, log_factorial, phase_schedule
from permlab.rng import BufferedDraws

FIG = parse_matrix("3\n101\n110\n101\n")

# Small synthetic parameters for plumbing-level tests; accuracy is not the
# point here, determinism and bookkeeping are.
FAST_PARAMS = dataclasses.replace(
    compute_params(4, 0.5),
    tau_init=2_000,
    tau_resample_phase=20,
    tau_resample_final=20,
    samples_phase=400,
    samples_final=400,
)


def all_ones(n):
    return Matrix.from_rows([[1] * n] * n)


def make_sampler(m, seed=0, log_lambda=0.0):
    wt = WeightTable.initial(m).with_updates(log_lambda=log_lambda)
    return wt, ChainSampler(wt, find_perfect_matching(m), BufferedDraws(seed, m.n))


def test_run_phase_sample_count_and_steps():
    m = all_ones(2)
    _, sampler = make_sampler(m, seed=3)
    stats = run_phase(sampler, tau_init=100, tau_resample=5, num_samples=50)
    assert stats.total == 50
    assert sampler.steps_taken == 100 + 5 * 50
    sampler.state().validate()


def banded(n):
    # Diagonal plus a band: has a perfect matching and enough absent pairs
    # for the non-instance count k to take several values.
    return Matrix.from_rows(
        [[1 if (j - i) % n in (0, 1, 3) else 0 for j in range(n)] for i in range(n)]
    )


def replay_run_phase(sampler, tau_init, tau_resample, num_samples):
    # One walk call and one record per sample.
    stats = PhaseStats()
    sampler.walk(tau_init)
    for _ in range(num_samples):
        sampler.walk(tau_resample)
        stats.record(sampler.hole(), sampler.lambda_count)
    return stats


def assert_same_table(stats, expected):
    # Insertion order matters: phase_ratio sums in it.
    assert list(stats.perfect.items()) == list(expected.perfect.items())
    assert list(stats.holes) == list(expected.holes)
    for hole, table in expected.holes.items():
        assert list(stats.holes[hole].items()) == list(table.items())
    assert stats.total == expected.total


def final_fraction(stats):
    # Y as run_schedule reads it from the final stage's table.
    return stats.perfect.get(0, 0.0) / stats.total


def assert_same_walker(sampler, twin):
    assert sampler.state() == twin.state()
    assert sampler.lambda_count == twin.lambda_count
    assert sampler.steps_taken == twin.steps_taken
    draws, twin_draws = sampler.draws, twin.draws
    assert (draws.edge_pos, draws.vert_pos, draws.unit_pos) == (
        twin_draws.edge_pos, twin_draws.vert_pos, twin_draws.unit_pos
    )


TALLY_TAU = pytest.mark.parametrize("tau_resample", [1, 2, 7])
TALLY_N = pytest.mark.parametrize("n", [4, 8])


@TALLY_TAU
@TALLY_N
def test_run_phase_tally_matches_per_sample_replay(n, tau_resample, walk_kernel):
    wt, sampler = make_sampler(banded(n), seed=n + tau_resample, log_lambda=-0.7)
    _, twin = make_sampler(banded(n), seed=n + tau_resample, log_lambda=-0.7)
    stats = run_phase(sampler, 300, tau_resample, 3_000)
    expected = replay_run_phase(twin, 300, tau_resample, 3_000)
    assert len(expected.holes) > 1 and len(expected.perfect) > 1
    assert_same_table(stats, expected)
    assert_same_walker(sampler, twin)

    # A lower activity, as in the final stage, makes instance-perfect
    # samples common.
    final_wt = wt.with_updates(log_lambda=-3.0)
    sampler.set_weights(final_wt)
    twin.set_weights(final_wt)
    final = final_refinement(sampler, 50, tau_resample, 2_000)
    expected = replay_run_phase(twin, 50, tau_resample, 2_000)
    assert 0 < expected.perfect.get(0, 0.0) < 2_000
    assert_same_table(final, expected)
    assert_same_walker(sampler, twin)


def test_walk_makes_every_step_whatever_the_spacing():
    _, sampler = make_sampler(banded(4), seed=5, log_lambda=-0.7)
    _, twin = make_sampler(banded(4), seed=5, log_lambda=-0.7)
    assert sampler.tally(3, 3).total == 3
    sampler.walk(1)
    twin.walk(10)
    assert_same_walker(sampler, twin)
    assert sampler.tally(4, 0).total == 0
    with pytest.raises(ValueError, match="spacing"):
        sampler.tally(0, 5)


def test_run_phase_hole_frequencies_uniform():
    # Complete 2x2 graph, activity 1, unit hole weights: each of the four
    # hole classes carries equal stationary mass.
    m = all_ones(2)
    wt = WeightTable(2, 0.0, (0.0,) * 4, (1,) * 4)
    sampler = ChainSampler(wt, find_perfect_matching(m), BufferedDraws(11, 2))
    stats = run_phase(sampler, tau_init=1_000, tau_resample=1, num_samples=100_000)
    hole_counts = [stats.hole_count((u, v)) for u in range(2) for v in range(2)]
    mean = sum(hole_counts) / 4
    assert all(abs(c - mean) / mean < 0.05 for c in hole_counts)


def test_update_weights_equal_counts_is_identity():
    wt = WeightTable.initial(all_ones(2))
    stats = PhaseStats()
    for _ in range(4):
        stats.record(None, 0)
    for u in range(2):
        for v in range(2):
            stats.record((u, v), 0, 4.0)
    updated = update_weights(stats, wt)
    assert updated.log_w == wt.log_w


def test_update_weights_ratio_doubles():
    wt = WeightTable.initial(all_ones(2))
    stats = PhaseStats()
    stats.record(None, 0, 8.0)
    for u in range(2):
        for v in range(2):
            stats.record((u, v), 0, 4.0)
    updated = update_weights(stats, wt)
    for u in range(2):
        for v in range(2):
            assert updated.hole_log_w(u, v) == pytest.approx(math.log(2 * 2), rel=1e-12)


def test_update_weights_failures():
    wt = WeightTable.initial(all_ones(2))
    no_perfect = PhaseStats()
    for u in range(2):
        for v in range(2):
            no_perfect.record((u, v), 0)
    with pytest.raises(PhaseFailure, match="no perfect"):
        update_weights(no_perfect, wt, phase=7)
    missing_hole = PhaseStats()
    missing_hole.record(None, 0, 5.0)
    missing_hole.record((0, 0), 0, 5.0)
    with pytest.raises(PhaseFailure) as info:
        update_weights(missing_hole, wt, phase=3)
    assert info.value.phase == 3


def test_phase_ratio_identity_tables():
    wt = WeightTable.initial(all_ones(2))
    stats = PhaseStats()
    stats.record(None, 1, 3.0)
    stats.record((1, 1), 0, 2.0)
    assert phase_ratio(stats, wt, wt) == pytest.approx(0.0, abs=1e-15)


def test_phase_ratio_refuses_tables_of_different_sizes():
    stats = PhaseStats()
    stats.record(None, 0, 1.0)
    with pytest.raises(ValueError, match="weight tables of different sizes"):
        phase_ratio(stats, WeightTable.initial(all_ones(2)), WeightTable.initial(all_ones(3)))


def test_phase_ratio_all_perfect_k0_ignores_lambda():
    wt = WeightTable.initial(all_ones(2))
    advanced = wt.with_updates(log_lambda=math.log(0.25))
    stats = PhaseStats()
    stats.record(None, 0, 10.0)
    assert phase_ratio(stats, wt, advanced) == pytest.approx(0.0, abs=1e-15)


def test_phase_ratio_lambda_square_factor():
    wt = WeightTable.initial(all_ones(2))
    halved = wt.with_updates(log_lambda=wt.log_lambda + math.log(0.5))
    stats = PhaseStats()
    stats.record((0, 0), 2, 1.0)
    assert math.exp(phase_ratio(stats, wt, halved)) == pytest.approx(0.25, rel=1e-12)


def test_final_refinement_all_perfect():
    # Hole weights so small the chain never leaves the perfect states.
    m = all_ones(2)
    wt = WeightTable(2, 0.0, (-40.0,) * 4, (1,) * 4)
    sampler = ChainSampler(wt, find_perfect_matching(m), BufferedDraws(1, 2))
    assert final_fraction(final_refinement(sampler, 50, 2, 200)) == 1.0


def test_final_refinement_failure_when_never_perfect():
    # Huge hole weights pin the chain in near-perfect states.
    m = all_ones(2)
    wt = WeightTable(2, 0.0, (40.0,) * 4, (1,) * 4)
    start = Matching(2, frozenset({(1, 1)}), hole=(0, 0))
    sampler = ChainSampler(wt, start, BufferedDraws(1, 2))
    assert final_fraction(final_refinement(sampler, 50, 2, 200)) == 0.0


def test_final_refinement_fraction_matches_stationary():
    # Complete graph at terminal-scale activity: the sampled perfect
    # fraction approaches the exact stationary mass of perfect matchings.
    n = 3
    m = all_ones(n)
    wt = WeightTable.initial(m).with_updates(log_lambda=math.log(1 / math.factorial(n)))
    states, pi = exact_stationary(n, wt)
    exact_mass = sum(p for s, p in zip(states, pi) if s.is_perfect)
    sampler = ChainSampler(wt, find_perfect_matching(m), BufferedDraws(23, n))
    y = final_fraction(final_refinement(sampler, 5_000, 3, 60_000))
    assert y == pytest.approx(exact_mass, rel=0.05)


def test_estimate_zero_matrix_is_exact_zero():
    zero = Matrix.from_rows([[0] * 4] * 4)
    estimate = estimate_permanent(zero, 0.5, seed=5)
    assert estimate.value == 0.0
    assert estimate.steps_taken == 0
    assert not estimate.failed


@pytest.mark.parametrize("params", [None, FAST_PARAMS], ids=["computed", "given"])
@pytest.mark.parametrize(
    "epsilon, seed, message",
    [
        (2.0, 0, r"^epsilon must be in \(0, 1\], got 2\.0$"),
        (math.nan, 0, r"^epsilon must be in \(0, 1\], got nan$"),
        (0.5, -1, "^seed must be a nonnegative integer, got -1$"),
        (0.5, True, "^seed must be a nonnegative integer, got True$"),
    ],
    ids=["epsilon-2", "epsilon-nan", "seed-negative", "seed-bool"],
)
def test_estimate_refuses_a_bad_epsilon_or_seed_before_the_matrix(params, epsilon, seed, message):
    # A zero matrix would otherwise give the exact value 0 without sampling.
    zero = Matrix.from_rows([[0] * 4] * 4)
    with pytest.raises(ValueError, match=message):
        estimate_permanent(zero, epsilon, seed=seed, params=params)


def test_estimate_refuses_a_walk_past_int64_before_any_walk(monkeypatch):
    # ctypes would store a walk of 2^64 steps as one of 0: a stage with
    # tau_resample_phase * samples_phase = 2^64 returned at once with "no
    # perfect-matching samples collected".
    def no_sampler(*args):
        raise AssertionError("estimate_permanent built a sampler")

    monkeypatch.setattr(fpras, "ChainSampler", no_sampler)
    walks = [
        ("burn-in", {"tau_init": 2**63}, 2**63),
        ("phase sampling walk", {"tau_resample_phase": 2**32, "samples_phase": 2**32}, 2**64),
        ("phase sampling walk", {"tau_resample_phase": 2**63, "samples_phase": 0}, 2**63),
        ("final sampling walk", {"tau_resample_final": 2**32, "samples_final": 2**32}, 2**64),
        ("final sampling walk", {"tau_resample_final": 2**63, "samples_final": 0}, 2**63),
    ]
    for what, fields, steps in walks:
        params = dataclasses.replace(FAST_PARAMS, **fields)
        message = rf"^the {what} of {steps} steps at n = 4 is above one walk's 2\^63 - 1$"
        with pytest.raises(ValueError, match=message):
            estimate_permanent(all_ones(4), 0.5, params=params)


def test_an_estimate_builds_one_acceptance_table_per_stage(monkeypatch):
    # The sampler builds stage 0's table when it is made; the stage reuses it.
    builds = []
    build = chain.acceptance_table

    def spy(wt):
        builds.append(wt)
        return build(wt)

    monkeypatch.setattr(chain, "acceptance_table", spy)
    m = generate_random(4, 12, seed=31)
    estimate = estimate_permanent(m, 0.5, seed=12, params=FAST_PARAMS)
    assert not estimate.failed
    assert len(builds) == phase_schedule(4).l + 1


def test_estimate_failure_with_one_sample_per_phase():
    sparse = Matrix.from_rows(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    estimate = estimate_permanent(
        sparse, 0.5, RelaxationFactors(300_000, 1, 1, 1), seed=2
    )
    assert estimate.value == -1.0
    assert estimate.failed
    assert estimate.failed_phase == 0
    assert estimate.failure_reason


def test_estimate_refinement_failure_reports_final_stage():
    # One final sample that is not instance-perfect: every phase succeeds,
    # then the final stage fails and is reported as stage l.
    m = generate_random(4, 12, seed=31)
    params = dataclasses.replace(FAST_PARAMS, samples_final=1)
    estimate = estimate_permanent(m, 0.5, seed=0, params=params)
    assert estimate.failed
    assert estimate.failed_phase == 24 == phase_schedule(4).l
    assert estimate.failure_reason == "no instance-perfect samples in the final stage"
    assert estimate.steps_taken == 242_020
    assert estimate.log_value is None and estimate.z_ratios == () and estimate.y_bar is None


def test_estimate_deterministic_replay():
    m = generate_random(4, 12, seed=31)
    first = estimate_permanent(m, 0.5, seed=77, params=FAST_PARAMS)
    second = estimate_permanent(m, 0.5, seed=77, params=FAST_PARAMS)
    assert first == second
    different = estimate_permanent(m, 0.5, seed=78, params=FAST_PARAMS)
    assert different.value != first.value


def test_estimate_steps_identity():
    m = generate_random(4, 12, seed=31)
    relax = RelaxationFactors(2, 3, 4, 5)
    estimate = estimate_permanent(m, 0.5, relax, seed=9, params=FAST_PARAMS)
    params = apply_relaxation(FAST_PARAMS, relax)
    assert not estimate.failed
    assert estimate.steps_taken == params.total_steps()


def test_estimate_value_never_nan():
    m = generate_random(4, 12, seed=31)
    estimate = estimate_permanent(m, 0.5, seed=4, params=FAST_PARAMS)
    assert estimate.value > 0
    assert math.isfinite(estimate.value)
    assert estimate.value == pytest.approx(math.exp(estimate.log_value))


def test_stage_records_reproduce_ratios_bitwise():
    # The compressed tables are sufficient statistics: recomputing each
    # stage ratio from its record and the next record's weights reproduces
    # it bit for bit, and the records add up to the returned estimate.
    m = generate_random(4, 12, seed=31)
    records = []
    estimate = estimate_permanent(m, 0.5, seed=12, params=FAST_PARAMS, on_stage=records.append)
    assert [r.index for r in records] == list(range(FAST_PARAMS.l + 1))
    final = records[-1].stats
    assert final.total == FAST_PARAMS.samples_final
    log_y = math.log(final.perfect[0] / final.total)
    assert log_y == records[-1].log_ratio == math.log(estimate.y_bar)
    for record, after in zip(records, records[1:]):
        assert phase_ratio(record.stats, record.weights, after.weights) == record.log_ratio
    log_z = [r.log_ratio for r in records[:-1]]
    assert math.log(17) + log_factorial(4) + sum(log_z) + records[-1].log_ratio == estimate.log_value
    assert estimate.z_ratios == tuple(math.exp(z) for z in log_z)
    assert estimate == estimate_permanent(m, 0.5, seed=12, params=FAST_PARAMS)


def test_failed_stages_make_no_record():
    m = generate_random(4, 12, seed=31)
    records = []
    params = dataclasses.replace(FAST_PARAMS, samples_final=1)
    estimate = estimate_permanent(m, 0.5, seed=0, params=params, on_stage=records.append)
    assert estimate.failed_phase == phase_schedule(4).l
    assert [r.index for r in records] == list(range(estimate.failed_phase))
    identity = Matrix.from_rows([[int(i == j) for j in range(4)] for i in range(4)])
    records.clear()
    estimate = estimate_permanent(
        identity, 0.5, RelaxationFactors(300_000, 1, 1, 1), seed=2, on_stage=records.append
    )
    assert estimate.failed_phase == 0 and records == []


def test_estimate_requires_n_at_least_4():
    with pytest.raises(ValueError):
        estimate_permanent(FIG, 0.5, seed=1)


def test_estimate_accuracy_at_moderate_relaxation():
    # Light sample relaxation with heavy time relaxation stays accurate;
    # heavy sample relaxation would bias the telescoping product low.
    m = generate_random(4, 12, seed=31)
    exact = permanent_ryser(m)
    relax = RelaxationFactors(16, 262_144, 16, 640)
    estimate = estimate_permanent(m, 0.5, relax, seed=1)
    assert not estimate.failed
    assert exact / 1.5 <= estimate.value <= exact * 1.5


def test_exact_distribution_pipeline_recovers_permanent():
    cases = [
        all_ones(2),
        all_ones(3),
        FIG,
        Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        Matrix.from_rows([[1, 1], [1, 0]]),
        Matrix.from_rows([[1, 1], [0, 0]]),
        *(generate_random(n, 3 * n * n // 4, seed=n) for n in (4, 5, 6)),
        Matrix.from_rows([[int(u == v) for v in range(6)] for u in range(6)]),
    ]
    for m in cases:
        expected = permanent_ryser(m)
        assert estimate_from_exact_distribution(m) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_class_stats_match_the_stationary_state_sums(n):
    # The (hole, k) class masses equal the sums of exact_stationary over the
    # states of each class, with non-instance pairs and unequal hole weights.
    m = generate_random(n, 3 * n * n // 4, seed=n)
    wt = WeightTable.initial(m).with_updates(
        log_lambda=-log_factorial(n) / 2, log_w=[2 * math.sin(3 * i) for i in range(n * n)]
    )
    expected = PhaseStats()
    for state, probability in zip(*exact_stationary(n, wt)):
        expected.record(state.hole, lambda_edges(state, wt), float(probability))
    stats = exact_distribution_stats(wt, state_classes(wt))
    assert stats.perfect == pytest.approx(expected.perfect, rel=1e-12, abs=0.0)
    assert stats.holes.keys() == expected.holes.keys()
    for hole, table in stats.holes.items():
        assert table == pytest.approx(expected.holes[hole], rel=1e-12, abs=0.0)
    assert stats.total == pytest.approx(1.0, rel=1e-12)
