import json

import pytest

from permlab import Matrix, save_matrix
from permlab.cli import main


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
    assert record == {"n": 3, "permanent": "2", "schema_version": "1"}


def test_params_subcommand(capsys):
    code, out, _ = run_cli(capsys, "params", "--n", "4", "--epsilon", "0.5")
    assert code == 0
    record = json.loads(out)
    assert record["samples_phase"] == 259_304
    assert record["l"] == 24
    assert record["total_steps"] == 3_932_754_162_118
    assert record["schema_version"] == "1"


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
    assert manifest["schema_version"] == "1"
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
    assert "stage 0" in err  # progress reporting on stderr


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
    assert csv_path.exists()


@pytest.mark.parametrize(
    "command, text, message",
    [
        (["exact"], "3\n101\n1x0\n101\n", "line 3: invalid character 'x'"),
        (["exact"], None, "No such file or directory"),
        (["estimate", "--quiet"], "3\n101\n110\n101\n", "parameter formulas require n >= 4, got 3"),
    ],
    ids=["malformed", "missing", "undersized"],
)
def test_domain_errors_print_one_line(tmp_path, capsys, command, text, message):
    path = tmp_path / "input.pmat"
    if text is not None:
        path.write_text(text)
    code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
    assert code == 1
    assert out == ""
    assert err.startswith("permlab: error: ")
    assert message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "config, message",
    [
        ({"relax": [300000, 1, 300000, 1]}, "entry 0, key 'epsilon': required"),
        ({"epsilon": 0.5, "relx": [300000, 1, 300000, 1]}, "entry 0, key 'relx': unknown"),
        ([1, 2], "entry 0: expected a JSON object, got 1"),
        ({"epsilon": 0.5, "relax": [1, 2]}, "entry 0, key 'relax': relax needs four factors"),
        (
            {"epsilon": 0.5, "relax": ["a", 1, 1, 1]},
            "entry 0, key 'relax': relaxation factor s_phase must be a finite number, got 'a'",
        ),
        (
            {"epsilon": 0.5, "relax": [1, float("inf"), 1, 1]},
            "entry 0, key 'relax': relaxation factor t_phase must be a finite number, got inf",
        ),
        ({"epsilon": "0.5"}, "entry 0, key 'epsilon': must be a number"),
        ([{"epsilon": 0.5}, {"epsilon": 0.5, "seed": 1.5}], "entry 1, key 'seed': must be an int"),
        ({"epsilon": 0.5, "label": 3}, "entry 0, key 'label': must be a string"),
    ],
    ids=[
        "missing-epsilon",
        "unknown-key",
        "not-an-object",
        "relax-two-values",
        "relax-not-numeric",
        "relax-infinite",
        "epsilon-string",
        "seed-float",
        "label-int",
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
    path.write_text(json.dumps(config))
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


def test_bad_relax_argument(tmp_path, capsys):
    path = tmp_path / "zero.pmat"
    save_matrix(Matrix.from_rows([[0] * 4] * 4), path)
    with pytest.raises(SystemExit):
        main(["estimate", str(path), "--relax", "1,2,3"])
    assert "relax needs four factors" in capsys.readouterr().err
