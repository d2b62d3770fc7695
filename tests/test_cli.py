import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from permlab import Matrix, harness, save_matrix
from permlab.cli import main
from permlab.params import phase_schedule

SRC = Path(__file__).resolve().parents[1] / "src"

VALID_RESULTS_RECORD = {
    "n": 4, "ones_count": 12, "seed": 0, "exact": 9, "estimate": 9.0, "rel_error": 0.0,
    "failed": False, "within_bound": True, "steps_taken": 1, "wall_seconds": 0.1,
    "epsilon": 0.5, "relax": [1, 1, 1, 1],
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exact_subcommand(tmp_path, capsys):
    path = tmp_path / "fig.pmat"
    path.write_text("3\n101\n110\n101\n")
    code, out, _ = run_cli(capsys, "exact", str(path))
    assert code == 0
    record = json.loads(out)
    assert record == {"n": 3, "permanent": "2", "schema_version": "2"}


def test_params_subcommand(capsys):
    code, out, _ = run_cli(capsys, "params", "--n", "4", "--epsilon", "0.5")
    assert code == 0
    record = json.loads(out)
    assert record["samples_phase"] == 259_304
    assert record["l"] == 24
    assert record["total_steps"] == 3_932_754_162_118
    assert record["schema_version"] == "2"


def test_a_closed_stdout_exits_1_without_an_error_line():
    # As in `permlab params --n 4 | head -c 50`, where head stops reading:
    # a reader that has gone says nothing about the input, so nothing is
    # printed on stderr, neither an error line nor "Exception ignored".
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "permlab.cli", "params", "--n", "4"],
            stdout=write,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            timeout=120,
        )
    finally:
        os.close(write)
    assert done.returncode == 1
    assert done.stderr == b""


def test_feasibility_subcommand(capsys):
    code, out, _ = run_cli(capsys, "feasibility", "--n", "4", "--epsilon", "0.5")
    assert code == 0
    record = json.loads(out)
    assert record["total_steps"] == "3932754162118"
    assert record["ryser_ops"] == "64"
    assert record["projected_years"] > 0


def test_crossover_subcommand(capsys):
    code, out, _ = run_cli(capsys, "crossover", "--epsilon", "0.5")
    assert code == 0
    assert json.loads(out)["crossover"] == 68


def test_gen_subcommand(tmp_path, capsys):
    out_dir = tmp_path / "suite"
    code, out, _ = run_cli(
        capsys,
        "gen",
        "--sizes", "4",
        "--densities", "3/4",
        "--count", "2",
        "--seed", "3",
        "--out", str(out_dir),
    )
    assert code == 0
    assert json.loads(out)["count"] == 2
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["schema_version"] == "2"
    assert len(manifest["matrices"]) == 2


def test_estimate_subcommand_zero_matrix(tmp_path, capsys):
    path = tmp_path / "zero.pmat"
    save_matrix(Matrix.from_rows([[0] * 4] * 4), path)
    code, out, _ = run_cli(
        capsys, "estimate", str(path), "--seed", "5", "--quiet"
    )
    assert code == 0
    record = json.loads(out)
    assert record["value"] == 0.0
    assert record["failed"] is False
    assert record["steps_taken"] == 0
    assert record["rng"] == "pcg64"


def test_estimate_prints_one_line_per_completed_stage(tmp_path, capsys):
    path = tmp_path / "ones.pmat"
    save_matrix(Matrix.from_rows([[1] * 4] * 4), path)
    argv = ["estimate", str(path), "--relax", "1000,262144,80,640", "--seed", "3"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    record = json.loads(out)
    assert not record["failed"]
    lines = err.splitlines()
    assert [line.split()[:2] for line in lines] == [["stage", f"{i}/24"] for i in range(25)]
    log_lambda, log_y = phase_schedule(4).lambdas[-1], math.log(record["y_bar"])
    final = f"stage 24/24 ln(lambda)={log_lambda:.6f} ln(ratio)={log_y:.6f} elapsed="
    assert lines[-1].startswith(final)
    assert run_cli(capsys, *argv, "--quiet") == (0, out, "")


def test_estimate_without_a_perfect_matching_prints_no_stage(tmp_path, capsys):
    path = tmp_path / "zero.pmat"
    save_matrix(Matrix.from_rows([[0]]), path)
    code, out, err = run_cli(capsys, "estimate", str(path))
    assert (code, json.loads(out)["value"], err) == (0, 0.0, "")


def test_estimate_without_a_perfect_matching_past_the_recursion_limit(tmp_path, capsys):
    # Only the singular matrix: a nonsingular one this size would build an
    # acceptance table of 48 n^3 bytes.
    n = sys.getrecursionlimit() + 100
    rows = [[1 if v in (u - 1, u) else 0 for v in range(n)] for u in range(n - 1)]
    path = tmp_path / "bidiagonal.pmat"
    save_matrix(Matrix.from_rows(rows + [[0] * n]), path)
    code, out, err = run_cli(capsys, "estimate", str(path))
    assert (code, json.loads(out)["value"], err) == (0, 0.0, "")


def test_estimate_subcommand_failure_path(tmp_path, capsys):
    path = tmp_path / "sparse.pmat"
    save_matrix(
        Matrix.from_rows([[int(i == j) for j in range(4)] for i in range(4)]), path
    )
    code, out, err = run_cli(
        capsys,
        "estimate", str(path),
        "--relax", "300000,1,1,1",
        "--seed", "2",
    )
    assert code == 0
    record = json.loads(out)
    assert record["value"] == -1.0
    assert record["failed"] is True
    assert record["failed_phase"] == 0
    assert err == ""  # stage 0 failed, so no stage completed


def test_trials_and_report_subcommands(tmp_path, capsys):
    suite = tmp_path / "suite"
    run_cli(
        capsys,
        "gen", "--sizes", "4", "--densities", "3/4", "--count", "2",
        "--seed", "17", "--out", str(suite),
    )
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"epsilon": 0.5, "relax": [300000, 1, 300000, 1], "seed": 7, "label": "t"})
    )
    results = tmp_path / "results.jsonl"
    code, out, _ = run_cli(
        capsys,
        "trials", str(suite / "manifest.json"), str(config),
        "--workers", "2", "--out", str(results),
    )
    assert code == 0
    assert json.loads(out)["trials"] == 2

    csv_path = tmp_path / "summary.csv"
    code, out, _ = run_cli(
        capsys, "report", str(results), "--csv", str(csv_path)
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 1
    assert rows[0]["group"] == 4
    assert rows[0]["trials"] == 2
    assert all(row["schema_version"] == "2" for row in rows)
    assert csv_path.exists()


@pytest.mark.parametrize(
    "command, text, message",
    [
        (["exact"], "3\n101\n1x0\n101\n", "line 3: invalid character 'x'"),
        (["exact"], None, "No such file or directory"),
        (["estimate", "--quiet"], "3\n101\n110\n101\n", "parameter formulas require n >= 4, got 3"),
        (["report"], '{"n": 4}\n', "line 1: missing keys ones_count, seed, exact,"),
        (["report"], "\n[1]\n", "line 2: expected a JSON object, got [1]"),
        (
            ["report"],
            '{"n": 4, "ones_count": 12, "seed": 0, "exact": 9, "estimate": 9.0, '
            '"rel_error": 0.0, "failed": false, "within_bound": true, "steps_taken": 1, '
            '"wall_seconds": 0.1, "epsilon": 0.5, "relax": [1, 1, 1, 1], "nn": 4}\n',
            "line 1: unknown keys nn",
        ),
        (
            # A complete line of schema version 1, which had no settings.
            ["report"],
            '{"n": 4, "ones_count": 12, "seed": 0, "exact": 9, "estimate": 9.0, '
            '"rel_error": 0.0, "failed": false, "within_bound": true, "steps_taken": 1, '
            '"wall_seconds": 0.1, "schema_version": "1"}\n',
            "input.pmat, line 1: schema_version must be '2', got '1'\n",
        ),
        (
            ["report"],
            '{"n": 4, "ones_count": 12, "seed": 0, "exact": 9, "estimate": 9.0, '
            '"rel_error": 0.0, "failed": false, "within_bound": true, "steps_taken": 1, '
            '"wall_seconds": 0.1, "epsilon": 0.5, "relax": [1, 1, 1, 1], "schema_version": "7"}\n',
            "input.pmat, line 1: schema_version must be '2', got '7'\n",
        ),
        (
            ["report"],
            '{"n": 4, "ones_count": 12, "seed": 0, "exact": 9, "estimate": 9.0, '
            '"rel_error": 0.0, "failed": false, "within_bound": true, "steps_taken": 1, '
            '"wall_seconds": 0.1, "epsilon": 7.0, "relax": [1, 1, 1, 1]}\n',
            "input.pmat, line 1: epsilon must be in (0, 1], got 7.0\n",
        ),
        (
            # A valid n = 4 line, then one whose n is a string: aggregate
            # would fail to sort the groups.
            ["report"],
            '{"n": 4, "ones_count": 12, "seed": 0, "exact": 9, "estimate": 9.0, '
            '"rel_error": 0.0, "failed": false, "within_bound": true, "steps_taken": 1, '
            '"wall_seconds": 0.1, "epsilon": 0.5, "relax": [1, 1, 1, 1]}\n'
            '{"n": "x", "ones_count": 12, "seed": true, "exact": 9, "estimate": "9", '
            '"rel_error": null, "failed": false, "within_bound": null, "steps_taken": 1, '
            '"wall_seconds": 0.1, "epsilon": 0.5, "relax": [1, 1, 1, 1]}\n',
            "line 2: n must be int, got 'x'; seed must be int, got True; "
            "estimate must be float, got '9'",
        ),
        (["report"], '{"n": 4}\n{"label": "\u00e9"}\n', "input.pmat: 'ascii' codec can't decode"),
        (["exact"], "3\n101\n1\u00e90\n101\n", "input.pmat: 'ascii' codec can't decode"),
        (
            ["exact"],
            "64\n" + ("1" * 64 + "\n") * 64,
            "permanent_ryser is limited to n <= 34 (O(n 2^n) growth), got n = 64\n",
        ),
        (
            ["exact"],
            "35\n" + ("1" * 35 + "\n") * 35,
            "permanent_ryser is limited to n <= 34 (O(n 2^n) growth), got n = 35\n",
        ),
        (["estimate"], "3\n101\n110\n101\n", "parameter formulas require n >= 4, got 3"),
        *(
            (
                ["report"],
                '{"n": 4, "ones_count": 12, "seed": 0, "exact": 9, "estimate": 9.0, '
                '"rel_error": 0.0, "failed": false, "within_bound": true, "steps_taken": 1, '
                f'"epsilon": 0.5, "relax": [1, 1, 1, 1], "wall_seconds": {constant}}}\n',
                f"input.pmat, line 1: wall_seconds must be float, got {value}",
            )
            for constant, value in (("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"))
        ),
        (
            # A literal past the float range parses to inf.
            ["report"],
            json.dumps(VALID_RESULTS_RECORD).replace('"wall_seconds": 0.1', '"wall_seconds": 1e999')
            + "\n",
            "input.pmat, line 1: wall_seconds must be float, got inf\n",
        ),
        (
            ["report"],
            (json.dumps({**VALID_RESULTS_RECORD, "rel_error": 1e308}) + "\n") * 2,
            "group 4: mean_rel_error is inf, which JSON cannot spell\n",
        ),
    ],
    ids=[
        "malformed",
        "missing",
        "undersized",
        "report-missing-keys",
        "report-not-object",
        "report-unknown-key",
        "report-schema-1",
        "report-schema-7",
        "report-epsilon-out-of-range",
        "report-wrong-types",
        "report-not-ascii",
        "exact-not-ascii",
        "exact-n64",
        "exact-n35",
        "undersized-not-quiet",
        "report-nan",
        "report-infinity",
        "report-negative-infinity",
        "report-overflowing-literal",
        "report-overflowing-mean",
    ],
)
def test_domain_errors_print_one_line(tmp_path, capsys, command, text, message):
    path = tmp_path / "input.pmat"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
    assert code == 1
    assert out == ""
    assert err.startswith("permlab: error: ")
    assert message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "config, message",
    [
        ({"relax": [300000, 1, 300000, 1]}, "entry 0: missing keys epsilon"),
        ({"epsilon": 0.5, "relx": [300000, 1, 300000, 1]}, "entry 0: unknown keys relx"),
        ([1, 2], "entry 0: expected a JSON object, got 1"),
        ({"epsilon": 0.5, "relax": [1, 2]}, "entry 0: relax needs four factors"),
        (
            {"epsilon": 0.5, "relax": ["a", 1, 1, 1]},
            "entry 0: relaxation factor s_phase must be a finite number, got 'a'",
        ),
        (
            {"epsilon": 0.5, "relax": [1, float("inf"), 1, 1]},
            "entry 0: relaxation factor t_phase must be a finite number, got inf",
        ),
        ({"epsilon": "0.5"}, "entry 0: epsilon must be float, got '0.5'"),
        ({"epsilon": 2}, "entry 0: epsilon must be in (0, 1], got 2"),
        ([{"epsilon": 0.5}, {"epsilon": 0.5, "seed": 1.5}], "entry 1: seed must be int, got 1.5"),
        ({"epsilon": 0.5, "label": 3}, "entry 0: label must be str, got 3"),
        (
            {"epsilon": 0.5, "seed": -2},
            "entry 0: seed must be a nonnegative integer, got -2",
        ),
        (
            {"epsilon": 2, "label": 3, "relx": 1},
            "entry 0: unknown keys relx; epsilon must be in (0, 1], got 2; label must be str, got 3\n",
        ),
        ("nope", "config.json: Expecting value"),
        ('{"epsilon": 0.5, "label": "\u00e9"}', "config.json: 'ascii' codec can't decode"),
    ],
    ids=[
        "missing-epsilon",
        "unknown-key",
        "not-an-object",
        "relax-two-values",
        "relax-not-numeric",
        "relax-infinite",
        "epsilon-string",
        "epsilon-out-of-range",
        "seed-float",
        "label-int",
        "seed-negative",
        "three-problems",
        "not-json",
        "not-ascii",
    ],
)
def test_bad_trials_config_prints_one_line(tmp_path, capsys, config, message):
    suite = tmp_path / "suite"
    run_cli(
        capsys,
        "gen", "--sizes", "4", "--densities", "3/4", "--count", "1",
        "--seed", "17", "--out", str(suite),
    )
    path = tmp_path / "config.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config), encoding="utf-8")
    results = tmp_path / "results.jsonl"
    code, out, err = run_cli(
        capsys, "trials", str(suite / "manifest.json"), str(path), "--out", str(results)
    )
    assert code == 1
    assert out == ""
    assert err.startswith("permlab: error: trials config ")
    assert message in err
    assert err.count("\n") == 1
    assert not results.exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("epsilon", "0.5", "epsilon must be float, got '0.5'"),
        ("epsilon", 7, "epsilon must be in (0, 1], got 7"),
        ("seed", 1.5, "seed must be int, got 1.5"),
        ("seed", -1, "seed must be a nonnegative integer, got -1"),
        ("label", 3, "label must be str, got 3"),
        ("relax", [1, 2], "relax needs four factors (s_phase, t_phase, s_final, t_final), got [1, 2]"),
        ("bogus", 1, "unknown keys bogus"),
    ],
    ids=[
        "epsilon-string", "epsilon-7", "seed-float", "seed-negative", "label-int", "relax-short",
        "unknown-key",
    ],
)
def test_a_bad_setting_is_refused_alike_in_a_config_and_a_results_line(
    tmp_path, capsys, key, value, message
):
    suite = tmp_path / "suite"
    run_cli(capsys, "gen", "--sizes", "4", "--densities", "3/4", "--count", "1", "--out", str(suite))
    config, results = tmp_path / "config.json", tmp_path / "results.jsonl"
    config.write_text(json.dumps({"epsilon": 0.5, key: value}), encoding="ascii")
    results.write_text(json.dumps({**VALID_RESULTS_RECORD, key: value}) + "\n", encoding="ascii")
    out_path = tmp_path / "out.jsonl"
    trials = run_cli(capsys, "trials", str(suite / "manifest.json"), str(config), "--out", str(out_path))
    report = run_cli(capsys, "report", str(results))
    assert trials == (1, "", f"permlab: error: trials config entry 0: {message}\n")
    assert report == (1, "", f"permlab: error: {results}, line 1: {message}\n")
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["feasibility", "--n", "68", "--epsilon", "1e-5"], "epsilon 1e-05 is too small for n = 68"),
        (["params", "--n", "4", "--epsilon", "1e-7"], "epsilon 1e-07 is too small for n = 4"),
        (["crossover", "--epsilon", "1e-320"], "epsilon 1e-320 is too small for n = 4"),
    ],
    ids=["feasibility", "params", "crossover-subnormal"],
)
def test_too_small_epsilon_prints_one_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"permlab: error: {message}: ")
    assert err.count("\n") == 1


def test_too_small_epsilon_fails_each_trial_and_keeps_the_batch(tmp_path, capsys):
    suite = tmp_path / "suite"
    run_cli(
        capsys,
        "gen", "--sizes", "4", "--densities", "3/4", "--count", "2",
        "--seed", "17", "--out", str(suite),
    )
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epsilon": 1e-9}))
    results = tmp_path / "results.jsonl"
    code, out, _ = run_cli(
        capsys, "trials", str(suite / "manifest.json"), str(config), "--out", str(results)
    )
    assert code == 0
    assert json.loads(out)["trials"] == 2
    records = [json.loads(line) for line in results.read_text().splitlines()]
    assert len(records) == 2
    for record in records:
        assert record["failed"] is True
        assert record["estimate"] == -1.0
        assert record["steps_taken"] == 0
        assert record["error"].startswith("epsilon 1e-09 is too small for n = 4: ")


def test_an_unexpected_exception_fails_one_trial_and_keeps_the_batch(tmp_path, capsys, monkeypatch):
    # One worker, so that the patched estimator is the one that runs.
    save_matrix(Matrix.from_rows([[1] * 4] * 4), tmp_path / "a.pmat")
    save_matrix(Matrix.from_rows([[1] * 4] * 4), tmp_path / "b.pmat")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"matrices": [{"path": "a.pmat"}, {"path": "b.pmat"}]}))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epsilon": 0.5, "relax": [300000, 1, 300000, 1]}))
    estimate = harness.estimate_permanent

    def faulty(m, epsilon, relax, seed):
        if seed == 0:
            raise RuntimeError("no kernel")
        return estimate(m, epsilon, relax, seed)

    monkeypatch.setattr(harness, "estimate_permanent", faulty)
    results = tmp_path / "results.jsonl"
    code, out, err = run_cli(
        capsys, "trials", str(manifest), str(config), "--workers", "1", "--out", str(results)
    )
    assert code == 0
    assert json.loads(out)["trials"] == 2
    failed, ran = (json.loads(line) for line in results.read_text().splitlines())
    assert failed["failed"] is True
    assert failed["error"] == "RuntimeError: no kernel"
    assert failed["exact"] == 24
    assert ran["steps_taken"] > 0
    assert ran["error"] != failed["error"]


def test_a_matrix_too_large_for_ryser_fails_one_trial_and_keeps_the_batch(tmp_path, capsys):
    save_matrix(Matrix.from_rows([[1] * 4] * 4), tmp_path / "small.pmat")
    save_matrix(Matrix.from_rows([[int(u == v) for v in range(64)] for u in range(64)]), tmp_path / "large.pmat")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"matrices": [{"path": "small.pmat"}, {"path": "large.pmat"}]}))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epsilon": 0.5, "relax": [300000, 1, 300000, 1]}))
    results = tmp_path / "results.jsonl"
    code, out, _ = run_cli(capsys, "trials", str(manifest), str(config), "--out", str(results))
    assert code == 0
    assert json.loads(out)["trials"] == 2
    small, large = (json.loads(line) for line in results.read_text().splitlines())
    assert (small["n"], small["exact"]) == (4, 24)
    assert large["n"] == 64
    assert large["failed"] is True
    assert large["error"].startswith("permanent_ryser is limited to n <= 34")


@pytest.mark.parametrize(
    "manifest, message",
    [
        ({"schema_version": "1"}, "manifest.json: expected an object with a 'matrices' list"),
        ([1, 2], "manifest.json: expected an object with a 'matrices' list"),
        (
            {"matrices": [{"n": 4}]},
            "manifest.json, matrices entry 0: expected an object with a string 'path', got {'n': 4}",
        ),
        ("{", "manifest.json: Expecting property name"),
    ],
    ids=["no-matrices", "not-an-object", "entry-without-path", "not-json"],
)
def test_bad_manifest_prints_one_line(tmp_path, capsys, manifest, message):
    path = tmp_path / "manifest.json"
    path.write_text(manifest if isinstance(manifest, str) else json.dumps(manifest))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epsilon": 0.5}))
    results = tmp_path / "results.jsonl"
    code, out, err = run_cli(capsys, "trials", str(path), str(config), "--out", str(results))
    assert code == 1
    assert out == ""
    assert err.startswith("permlab: error: manifest ")
    assert message in err
    assert err.count("\n") == 1
    assert not results.exists()


def test_bad_relax_argument(tmp_path, capsys):
    path = tmp_path / "zero.pmat"
    save_matrix(Matrix.from_rows([[0] * 4] * 4), path)
    with pytest.raises(SystemExit):
        main(["estimate", str(path), "--relax", "1,2,3"])
    assert "relax needs four factors" in capsys.readouterr().err


@pytest.mark.parametrize(
    "densities, message",
    [
        ("1/0", "density denominator must be positive, got '1/0'"),
        ("3/4,1/-2", "density denominator must be positive, got '1/-2'"),
        ("3", "density must look like 3/4, got '3'"),
        ("3/4,5/4", "argument --densities: density must be in [0, 1], got '5/4'"),
        ("3/4,-1/4", "argument --densities: density must be in [0, 1], got '-1/4'"),
    ],
    ids=["zero-denominator", "negative-denominator", "no-slash", "above-1", "below-0"],
)
def test_bad_density_argument(tmp_path, capsys, densities, message):
    with pytest.raises(SystemExit) as info:
        main(["gen", "--sizes", "4", "--densities", densities, "--out", str(tmp_path / "suite")])
    assert info.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "suite").exists()


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--count", "0", "argument --count: value must be a positive integer, got '0'"),
        ("--count", "-1", "argument --count: value must be a positive integer, got '-1'"),
        ("--sizes", "4,x", "argument --sizes: size must be a positive integer, got 'x'"),
        ("--sizes", "0", "argument --sizes: size must be a positive integer, got '0'"),
        ("--sizes", "-4", "argument --sizes: size must be a positive integer, got '-4'"),
        (
            "--sizes",
            "4,64",
            "argument --sizes: size must be at most 34, the largest n permanent_ryser takes, "
            "got '64'\n",
        ),
        (
            "--sizes",
            "4,35",
            "argument --sizes: size must be at most 34, the largest n permanent_ryser takes, "
            "got '35'\n",
        ),
    ],
    ids=["count-zero", "count-negative", "size-not-int", "size-zero", "size-negative", "size-64", "size-35"],
)
def test_bad_gen_count_or_size(tmp_path, capsys, option, value, message):
    with pytest.raises(SystemExit) as info:
        main(["gen", "--out", str(tmp_path / "suite"), option, value])
    assert info.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "suite").exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_bad_trials_workers_argument(tmp_path, capsys, workers):
    results = tmp_path / "results.jsonl"
    with pytest.raises(SystemExit) as info:
        main(["trials", "manifest.json", "config.json", "--workers", workers, "--out", str(results)])
    assert info.value.code == 2
    message = f"argument --workers: value must be a positive integer, got '{workers}'"
    assert message in capsys.readouterr().err
    assert not results.exists()


@pytest.mark.parametrize("workers", ["abc", "0", "-2"])
def test_bad_workers_variable_prints_one_line(tmp_path, capsys, monkeypatch, workers):
    suite = tmp_path / "suite"
    run_cli(
        capsys,
        "gen", "--sizes", "4", "--densities", "3/4", "--count", "1",
        "--seed", "17", "--out", str(suite),
    )
    config = tmp_path / "config.json"
    # A relax whose trial fails in its first phase, so a run that ignored the
    # variable would end soon, with a results file.
    config.write_text(json.dumps({"epsilon": 0.5, "relax": [300000, 1, 300000, 1]}))
    results = tmp_path / "results.jsonl"
    monkeypatch.setenv("PERMLAB_WORKERS", workers)
    code, out, err = run_cli(
        capsys, "trials", str(suite / "manifest.json"), str(config), "--out", str(results)
    )
    assert code == 1
    assert out == ""
    assert err == f"permlab: error: PERMLAB_WORKERS must be a positive integer, got '{workers}'\n"
    assert not results.exists()


@pytest.mark.parametrize("command", ["estimate", "gen"])
@pytest.mark.parametrize("seed", ["-1", "x"])
def test_bad_seed_argument(tmp_path, capsys, command, seed):
    path = tmp_path / "zero.pmat"
    save_matrix(Matrix.from_rows([[0] * 4] * 4), path)
    argv = {
        "estimate": ["estimate", str(path), "--quiet"],
        "gen": ["gen", "--sizes", "4", "--out", str(tmp_path / "suite")],
    }[command]
    with pytest.raises(SystemExit) as info:
        main(argv + ["--seed", seed])
    assert info.value.code == 2
    message = f"argument --seed: seed must be a nonnegative integer, got '{seed}'"
    assert message in capsys.readouterr().err
    assert not (tmp_path / "suite").exists()


@pytest.mark.parametrize("rate", ["nan", "inf", "-inf"])
def test_feasibility_refuses_a_rate_that_is_not_finite(capsys, rate):
    code, out, err = run_cli(capsys, "feasibility", "--n", "68", f"--rate={rate}")
    assert code == 1
    assert out == ""
    assert err == f"permlab: error: steps_per_second must be positive and finite, got {rate}\n"


@pytest.mark.parametrize("n", ["10001", "14300"])
def test_feasibility_refuses_an_n_above_the_scan_limit(capsys, n):
    # At n = 14300, n * 2^n would have more digits than str() prints.
    code, out, err = run_cli(capsys, "feasibility", "--n", n)
    assert code == 1
    assert out == ""
    assert err == f"permlab: error: --n must be at most 10000, the crossover scan's limit, got {n}\n"


def test_feasibility_refuses_a_rate_whose_projection_overflows(capsys):
    code, out, err = run_cli(capsys, "feasibility", "--n", "68", "--rate", "1e-300")
    assert code == 1
    assert out == ""
    assert err == (
        "permlab: error: steps_per_second 1e-300 is too small: the time for "
        "13285251197747730326655 steps overflows a float\n"
    )
