import json
import math
from concurrent.futures import Future

import pytest

from permlab import (
    Matrix,
    RelaxationFactors,
    TrialConfig,
    TrialResult,
    aggregate,
    estimate_permanent,
    generate_suite,
    load_matrix,
    permanent_naive,
    run_trials,
    save_matrix,
)
from permlab import harness
from permlab.harness import (
    WORKERS_ENV_VAR,
    configs_from_manifest,
    default_workers,
    ones_for_density,
    read_results,
    relative_error,
    run_single_trial,
    within_multiplicative_bound,
    write_results,
    write_summary_csv,
)

RELAX_FAST_FAIL = RelaxationFactors(300_000, 1, 300_000, 1)


def make_result(**overrides):
    base = dict(
        n=4,
        ones_count=12,
        seed=0,
        exact=8,
        estimate=8.5,
        rel_error=0.0625,
        failed=False,
        within_bound=True,
        steps_taken=1000,
        wall_seconds=0.5,
        epsilon=0.5,
        relax=RelaxationFactors(1, 262144, 80.5, 640),
    )
    base.update(overrides)
    return TrialResult(**base)


def test_relative_error_multiplicative_form():
    assert relative_error(10.0, 8) == pytest.approx(0.25)
    assert relative_error(6.4, 8) == pytest.approx(0.25)
    assert relative_error(8.0, 8) == pytest.approx(0.0)
    assert relative_error(-1.0, 8) is None
    assert relative_error(3.0, 0) is None


def test_relative_error_exact_arithmetic_large_values():
    # 20! scale, beyond exact float resolution; the rational path keeps the
    # comparison faithful to the integer.
    exact = math.factorial(20)
    estimate = float(exact) * 1.03
    err = relative_error(estimate, exact)
    assert err == pytest.approx(0.03, rel=1e-9)


def test_within_bound():
    assert within_multiplicative_bound(8.0, 8, 0.5) is True
    assert within_multiplicative_bound(12.0, 8, 0.5) is True
    assert within_multiplicative_bound(12.1, 8, 0.5) is False
    assert within_multiplicative_bound(5.34, 8, 0.5) is True
    assert within_multiplicative_bound(5.3, 8, 0.5) is False
    assert within_multiplicative_bound(-1.0, 8, 0.5) is None


def test_aggregate_perfect_estimates():
    rows = aggregate([make_result(rel_error=0.0) for _ in range(5)])
    assert len(rows) == 1
    assert rows[0].mean_rel_error == 0.0
    assert rows[0].misestimates == 0
    assert rows[0].failures == 0
    assert rows[0].trials == 5


def test_aggregate_excludes_failures_from_error_mean():
    results = [make_result(rel_error=0.1) for _ in range(19)]
    results.append(
        make_result(estimate=-1.0, rel_error=None, failed=True, within_bound=None)
    )
    rows = aggregate(results)
    assert rows[0].failures == 1
    assert rows[0].trials == 20
    assert rows[0].mean_rel_error == pytest.approx(0.1)


def test_aggregate_counts_misestimates():
    results = [
        make_result(within_bound=True),
        make_result(within_bound=False, rel_error=0.7),
        make_result(within_bound=False, rel_error=0.9),
    ]
    rows = aggregate(results)
    assert rows[0].misestimates == 2


def test_aggregate_groups_by_n():
    results = [make_result(n=4), make_result(n=6), make_result(n=6)]
    rows = aggregate(results)
    assert [r.group for r in rows] == [4, 6]
    assert [r.trials for r in rows] == [1, 2]


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError):
        aggregate([])


def test_trial_config_refuses_epsilon_outside_0_1():
    with pytest.raises(ValueError, match=r"^epsilon must be in \(0, 1\], got 0\.0$"):
        TrialConfig("m.pmat", epsilon=0.0, relax=RelaxationFactors(), seed=0)


def test_ones_for_density():
    assert ones_for_density(4, 3, 4) == 12
    assert ones_for_density(4, 7, 8) == 14
    assert ones_for_density(6, 7, 8) == 32  # 31.5 rounds half to even
    assert ones_for_density(10, 3, 4) == 75


def test_generate_suite_manifest(tmp_path):
    manifest = generate_suite(
        sizes=[4, 5], densities=[(3, 4), (7, 8)], count=2, seed=9, out_dir=tmp_path
    )
    assert manifest["count"] == 8
    assert manifest["rng"] == "pcg64"
    assert (tmp_path / "manifest.json").exists()
    for entry in manifest["matrices"]:
        m = load_matrix(tmp_path / entry["path"])
        assert m.n == entry["n"]
        assert m.ones_count() == entry["ones"]
        # Manifest exact values re-verified against the independent oracle.
        assert int(entry["exact_permanent"]) == permanent_naive(m)


def test_generate_suite_deterministic(tmp_path):
    m1 = generate_suite([4], [(3, 4)], 3, seed=5, out_dir=tmp_path / "a")
    m2 = generate_suite([4], [(3, 4)], 3, seed=5, out_dir=tmp_path / "b")
    assert [e["seed"] for e in m1["matrices"]] == [e["seed"] for e in m2["matrices"]]
    for e1, e2 in zip(m1["matrices"], m2["matrices"]):
        assert (tmp_path / "a" / e1["path"]).read_text() == (
            tmp_path / "b" / e2["path"]
        ).read_text()


@pytest.mark.parametrize("size", [0, 35, 64])
def test_generate_suite_refuses_a_size_before_writing(tmp_path, size):
    out = tmp_path / "suite"
    with pytest.raises(ValueError, match=rf"suite sizes must be in \[1, 34\].*, got {size}$"):
        generate_suite([4, size], [(1, 2)], 1, 0, out)
    assert not out.exists()


def test_run_single_trial_full_fields(tmp_path):
    m = Matrix.from_rows([[1, 1, 1, 0], [1, 1, 0, 1], [1, 0, 1, 1], [0, 1, 1, 1]])
    path = tmp_path / "m.pmat"
    save_matrix(m, path)
    config = TrialConfig(
        str(path),
        epsilon=0.5,
        relax=RelaxationFactors(1_000, 262_144, 80, 640),
        seed=4,
        label="unit",
    )
    result = run_single_trial(config)
    assert result.n == 4
    assert result.ones_count == 12
    assert result.exact == 9
    assert not result.failed
    assert result.estimate > 0
    assert result.rel_error is not None
    assert result.within_bound is not None
    assert result.steps_taken > 0
    assert result.wall_seconds > 0
    assert result.label == "unit"


def test_run_trial_failure_records(tmp_path):
    m = Matrix.from_rows([[int(i == j) for j in range(4)] for i in range(4)])
    path = tmp_path / "sparse.pmat"
    save_matrix(m, path)
    config = TrialConfig(str(path), epsilon=0.5, relax=RELAX_FAST_FAIL, seed=1)
    result = run_single_trial(config)
    assert result.failed
    assert result.estimate == -1.0
    assert result.rel_error is None
    assert result.within_bound is None
    # Every failed trial says why: here the phase the estimator stopped in.
    estimate = estimate_permanent(m, 0.5, RELAX_FAST_FAIL, 1)
    assert result.error == f"phase {estimate.failed_phase}: {estimate.failure_reason}"
    assert result.error.startswith("phase ")


def test_run_trial_unreadable_file():
    config = TrialConfig("/nonexistent/nowhere.pmat", epsilon=0.5, relax=RelaxationFactors(), seed=0)
    result = run_single_trial(config)
    assert result.failed
    assert result.error is not None
    assert result.n == result.ones_count == 0
    assert result.steps_taken == 0
    assert result.wall_seconds == 0.0


def test_undersized_instance_fails_without_losing_the_batch(tmp_path):
    # The estimator rejects n = 3; that trial is recorded as failed and the
    # n = 4 trial after it still runs and persists.
    generate_suite([3, 4], [(3, 4)], 1, seed=0, out_dir=tmp_path)
    configs = configs_from_manifest(
        tmp_path / "manifest.json", epsilon=0.5, relax=RELAX_FAST_FAIL, base_seed=0
    )
    path = tmp_path / "results.jsonl"
    assert write_results(run_trials(configs, workers=1), path) == 2
    small, large = read_results(path)
    assert (small.n, large.n) == (3, 4)
    assert small.failed
    assert small.estimate == -1.0
    assert small.exact == permanent_naive(load_matrix(configs[0].matrix_path))
    assert small.error == "parameter formulas require n >= 4, got 3"
    assert small.steps_taken == 0
    assert small.wall_seconds == 0.0
    # Each record says which settings produced it, failed or not.
    assert all(r.epsilon == 0.5 and r.relax == RELAX_FAST_FAIL for r in (small, large))
    # The n = 4 trial ran; at these settings its run ends in a phase failure.
    assert large.steps_taken > 0
    assert large.error.startswith("phase ")


def test_a_subnormal_epsilon_fails_each_trial_without_losing_the_batch(tmp_path):
    # 1 / delta_phase overflows at this epsilon; each trial is one failed
    # record, not a traceback that loses the batch.
    generate_suite([4], [(3, 4)], 2, seed=0, out_dir=tmp_path)
    configs = configs_from_manifest(tmp_path / "manifest.json", epsilon=1e-320, relax=RELAX_FAST_FAIL, base_seed=0)
    results = list(run_trials(configs, workers=1))
    assert len(results) == 2
    for result in results:
        assert result.failed
        assert result.estimate == -1.0
        assert result.steps_taken == 0
        assert result.error.startswith("epsilon 1e-320 is too small for n = 4: ")


def test_an_unexpected_exception_fails_one_trial_without_losing_the_batch(tmp_path, monkeypatch):
    # An exception that is not a ValueError is one failed record too, named
    # by its type; the trial after it runs.
    generate_suite([4], [(3, 4)], 2, seed=0, out_dir=tmp_path)
    configs = configs_from_manifest(tmp_path / "manifest.json", epsilon=0.5, relax=RELAX_FAST_FAIL, base_seed=0)

    def estimate(m, epsilon, relax, seed):
        if seed == configs[0].seed:
            raise RuntimeError("no kernel")
        return estimate_permanent(m, epsilon, relax, seed)

    monkeypatch.setattr(harness, "estimate_permanent", estimate)
    first, second = run_trials(configs, workers=1)
    assert first.failed
    assert first.error == "RuntimeError: no kernel"
    assert first.estimate == -1.0
    assert first.exact == permanent_naive(load_matrix(configs[0].matrix_path))
    assert first.steps_taken == 0
    assert first.wall_seconds == 0.0
    assert second.steps_taken > 0
    assert second.error.startswith("phase ")


def test_a_matrix_too_large_for_ryser_fails_without_losing_the_batch(tmp_path):
    # Ryser refuses n = 35, which its Python loop would take a day over;
    # that trial is recorded as failed, and the one before it keeps its
    # record.
    save_matrix(Matrix.from_rows([[1, 1, 1, 0], [1, 1, 0, 1], [1, 0, 1, 1], [0, 1, 1, 1]]), tmp_path / "small.pmat")
    save_matrix(Matrix.from_rows([[int(u == v) for v in range(35)] for u in range(35)]), tmp_path / "large.pmat")
    configs = [
        TrialConfig(str(tmp_path / name), epsilon=0.5, relax=RELAX_FAST_FAIL, seed=1)
        for name in ("small.pmat", "large.pmat")
    ]
    small, large = run_trials(configs, workers=1)
    assert (small.n, small.exact) == (4, 9)
    assert large.n == 35
    assert large.failed
    assert large.exact == 0
    assert large.estimate == -1.0
    assert large.error.startswith("permanent_ryser is limited to n <= 34")
    assert large.steps_taken == 0
    assert large.wall_seconds == 0.0


def test_zero_permanent_trial_is_benign(tmp_path):
    zero = Matrix.from_rows([[0] * 4] * 4)
    path = tmp_path / "zero.pmat"
    save_matrix(zero, path)
    config = TrialConfig(str(path), epsilon=0.5, relax=RelaxationFactors(), seed=0)
    result = run_single_trial(config)
    assert not result.failed
    assert result.exact == 0
    assert result.estimate == 0.0
    assert result.rel_error is None
    rows = aggregate([result])
    assert rows[0].failures == 0
    assert rows[0].mean_rel_error is None


def _strip_wall(result):
    return {**result.__dict__, "wall_seconds": None}


def test_parallel_matches_serial(tmp_path):
    zero = Matrix.from_rows([[0] * 4] * 4)
    paths = []
    for i in range(4):
        path = tmp_path / f"z{i}.pmat"
        save_matrix(zero, path)
        paths.append(path)
    sparse = Matrix.from_rows([[int(i == j) for j in range(4)] for i in range(4)])
    sparse_path = tmp_path / "sparse.pmat"
    save_matrix(sparse, sparse_path)
    configs = [
        TrialConfig(str(p), epsilon=0.5, relax=RELAX_FAST_FAIL, seed=i)
        for i, p in enumerate(paths)
    ]
    configs.append(TrialConfig(str(sparse_path), epsilon=0.5, relax=RELAX_FAST_FAIL, seed=99))
    serial = [_strip_wall(r) for r in run_trials(configs, workers=1)]
    parallel = [_strip_wall(r) for r in run_trials(configs, workers=3)]
    assert serial == parallel


@pytest.mark.parametrize("workers, trials, pools", [(64, 4, [4]), (2, 4, [2]), (64, 1, [])])
def test_pool_has_at_most_one_worker_per_trial(tmp_path, monkeypatch, workers, trials, pools):
    # A stand-in for ProcessPoolExecutor that records its size and runs
    # each submission at once, so no process starts.
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    path = tmp_path / "zero.pmat"
    save_matrix(Matrix.from_rows([[0] * 4] * 4), path)
    configs = [TrialConfig(str(path), epsilon=0.5, relax=RELAX_FAST_FAIL, seed=i) for i in range(trials)]
    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setenv(WORKERS_ENV_VAR, str(workers))
    assert [r.seed for r in run_trials(configs)] == list(range(trials))
    assert sizes == pools


@pytest.mark.parametrize("value, workers", [(None, 1), ("", 1), ("3", 3)])
def test_default_workers_reads_the_environment(monkeypatch, value, workers):
    if value is None:
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(WORKERS_ENV_VAR, value)
    assert default_workers() == workers


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_default_workers_refuses_a_bad_value(monkeypatch, value):
    monkeypatch.setenv(WORKERS_ENV_VAR, value)
    message = f"PERMLAB_WORKERS must be a positive integer, got '{value}'"
    with pytest.raises(ValueError, match=message):
        default_workers()


def test_results_jsonl_round_trip(tmp_path):
    results = [make_result(seed=i, exact=math.factorial(18) + i) for i in range(3)]
    path = tmp_path / "results.jsonl"
    assert write_results(results, path) == 3
    loaded = read_results(path)
    assert loaded == results
    first = json.loads(path.read_text().splitlines()[0])
    assert first["schema_version"] == "2"
    assert isinstance(first["exact"], int)
    # relax is written as a trials config writes it.
    assert first["epsilon"] == 0.5
    assert first["relax"] == [1, 262144, 80.5, 640]


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"epsilon": None, "relax": None}, "missing keys epsilon, relax"),
        ({"epsilon": "0.5"}, "epsilon must be float, got '0.5'"),
        ({"relax": [1, 2, 3]}, "relax needs four factors"),
        ({"relax": {"s_phase": 1}}, "relax needs four factors"),
        ({"relax": [1, "2", 3, 4]}, "relaxation factor t_phase must be a finite number, got '2'"),
        ({"relax": [1, 1, 0.5, 1]}, "relaxation factor s_final must be >= 1, got 0.5"),
        ({"epsilon": 7.0}, r"epsilon must be in \(0, 1\], got 7.0$"),
        ({"epsilon": 0}, r"epsilon must be in \(0, 1\], got 0$"),
        ({"epsilon": -0.5, "relax": [1, 1, 0.5, 1]}, r"epsilon must be in \(0, 1\], got -0.5; relaxation"),
        ({"schema_version": "7"}, "schema_version must be '2', got '7'$"),
        ({"schema_version": 2, "epsilon": 7.0}, "schema_version must be '2', got 2$"),
        ({"wall_seconds": math.inf}, "wall_seconds must be float, got inf$"),
        ({"wall_seconds": 10**400}, "wall_seconds must be float, got 10{400}$"),
    ],
    ids=[
        "missing", "epsilon-str", "relax-short", "relax-object", "relax-str", "relax-below-1",
        "epsilon-above-1", "epsilon-0", "epsilon-and-relax", "schema-7", "schema-int",
        "wall-infinite", "wall-int-past-float",
    ],
)
def test_from_json_checks_the_trial_settings(changes, message):
    record = json.loads(make_result().to_json())
    for key, value in changes.items():
        if value is None:
            del record[key]
        else:
            record[key] = value
    with pytest.raises(ValueError, match=f"^{message}"):
        TrialResult.from_json(json.dumps(record))


def test_summary_csv(tmp_path):
    # The n = 6 group holds only a failed trial, so its mean error is None.
    results = [
        make_result(),
        make_result(rel_error=0.125, within_bound=False, wall_seconds=0.25),
        make_result(
            n=6, estimate=-1.0, rel_error=None, failed=True, within_bound=None,
            steps_taken=0, wall_seconds=0.0, error="phase 0: no perfect samples",
        ),
    ]
    out = tmp_path / "summary.csv"
    write_summary_csv(aggregate(results), out)
    assert out.read_bytes() == (
        b"group,trials,mean_rel_error,misestimates,failures,mean_wall_seconds\r\n"
        b"4,2,0.093750,1,0,0.375000\r\n"
        b"6,1,,0,1,0.000000\r\n"
    )


def test_configs_from_manifest(tmp_path):
    generate_suite([4], [(3, 4)], 2, seed=1, out_dir=tmp_path)
    configs = configs_from_manifest(
        tmp_path / "manifest.json",
        epsilon=0.5,
        relax=RelaxationFactors(),
        base_seed=100,
        label="round",
    )
    assert len(configs) == 2
    assert configs[0].seed == 100
    assert configs[1].seed == 101
    assert all(c.label == "round" for c in configs)


def test_trial_config_defaults_and_seed_check():
    config = TrialConfig("m.pmat", epsilon=0.5)
    assert (config.relax, config.seed, config.label) == (RelaxationFactors(), 0, "")
    for seed in (-1, 1.5):
        with pytest.raises(ValueError, match=rf"^seed must be a nonnegative integer, got {seed}$"):
            TrialConfig("m.pmat", epsilon=0.5, seed=seed)


def test_configs_from_manifest_refuses_a_negative_base_seed(tmp_path):
    generate_suite([4], [(3, 4)], 2, seed=1, out_dir=tmp_path)
    with pytest.raises(ValueError, match=r"^seed must be a nonnegative integer, got -1$"):
        configs_from_manifest(tmp_path / "manifest.json", 0.5, RelaxationFactors(), base_seed=-1)


@pytest.mark.parametrize("field", ["rel_error", "wall_seconds"])
def test_aggregate_refuses_a_mean_past_the_float_range(field):
    results = [make_result(**{field: 1e308})] * 2
    with pytest.raises(ValueError, match=f"^group 4: mean_{field} is inf, which JSON cannot spell$"):
        aggregate(results)


def test_to_json_refuses_a_value_json_cannot_spell():
    with pytest.raises(ValueError):
        make_result(wall_seconds=math.inf).to_json()
