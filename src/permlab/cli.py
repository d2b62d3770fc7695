"""Command-line interface.

Subcommands:

  gen          generate a random instance suite plus manifest
  exact        exact permanent of a .pmat file (Ryser)
  estimate     MCMC estimate of a .pmat file's permanent
  params       sampling parameters for given n and epsilon
  feasibility  step totals versus Ryser operation count, with time projection
  crossover    smallest n where the estimator beats Ryser's operation count
  trials       run a batch of trials from a manifest and a config file
  report       aggregate a results file into per-size summary rows

Every JSON document printed or written carries a schema_version field, and
none holds a number JSON cannot spell. The parser only turns text into
numbers, lists and a/b densities, and text that is none of these is its
usage error, with exit status 2. Every value is checked by the library
function that takes it, so bad input (an unreadable or malformed file, a
number the library refuses) prints one ``permlab: error: ...`` line on
stderr, writes nothing and exits with status 1; a trials config entry is
read as a TrialConfig by harness.from_record, the check of results lines,
so its line names the entry and every bad key. A stdout whose reader has gone
(``permlab params --n 4 | head -c 50``) also exits with status 1, with
nothing on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from . import feasibility as feas
from .exact import permanent_ryser
from .fpras import estimate_permanent
from .harness import (
    SCHEMA_VERSION,
    TrialConfig,
    aggregate,
    configs_from_manifest,
    from_record,
    generate_suite,
    read_results,
    run_trials,
    write_results,
    write_summary_csv,
)
from .matrix import load_matrix
from .params import RelaxationFactors, compute_params, phase_schedule
from .rng import RNG_ALGORITHM


def _emit(payload: dict) -> None:
    payload.setdefault("schema_version", SCHEMA_VERSION)
    # One write, so that a value JSON cannot spell prints nothing at all.
    sys.stdout.write(json.dumps(payload, sort_keys=True, allow_nan=False) + "\n")


def _parse_relax(text: str) -> list[int | float]:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"relax must look like 1,262144,16,64, got {text!r}") from None
    return [int(v) if v.is_integer() else v for v in values]


def _parse_density(text: str) -> tuple[int, int]:
    num, _, den = text.partition("/")
    try:
        return int(num), int(den)
    except ValueError:
        raise argparse.ArgumentTypeError(f"density must look like 3/4, got {text!r}") from None


def _parse_densities(text: str) -> list[tuple[int, int]]:
    return [_parse_density(part) for part in text.split(",")]


def _parse_sizes(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"sizes must look like 4,6,8, got {text!r}") from None


def cmd_gen(args) -> int:
    manifest = generate_suite(
        sizes=args.sizes,
        densities=args.densities,
        count=args.count,
        seed=args.seed,
        out_dir=args.out,
    )
    _emit({"manifest": str(args.out) + "/manifest.json", "count": manifest["count"]})
    return 0


def cmd_exact(args) -> int:
    m = load_matrix(args.matrix)
    _emit({"n": m.n, "permanent": str(permanent_ryser(m))})
    return 0


def cmd_estimate(args) -> int:
    relax = RelaxationFactors.from_sequence(args.relax)
    m = load_matrix(args.matrix)
    start, stages = time.monotonic(), None

    def print_stage(record) -> None:
        nonlocal stages  # l, at the first record: phase_schedule refuses n = 1, which runs none
        stages = stages or phase_schedule(m.n).l
        print(
            f"stage {record.index}/{stages} ln(lambda)={record.weights.log_lambda:.6f} "
            f"ln(ratio)={record.log_ratio:.6f} elapsed={time.monotonic() - start:.1f}s",
            file=sys.stderr,
        )

    on_stage = None if args.quiet else print_stage
    estimate = estimate_permanent(m, args.epsilon, relax, seed=args.seed, on_stage=on_stage)
    _emit(
        {
            "n": m.n,
            "epsilon": args.epsilon,
            "relax": list(dataclasses.astuple(relax)),
            "seed": args.seed,
            "rng": RNG_ALGORITHM,
            "value": estimate.value,
            "log_value": estimate.log_value,
            "y_bar": estimate.y_bar,
            "steps_taken": estimate.steps_taken,
            "failed": estimate.failed,
            "failed_phase": estimate.failed_phase,
            "failure_reason": estimate.failure_reason,
        }
    )
    return 0


def cmd_params(args) -> int:
    params = compute_params(args.n, args.epsilon)
    record = dataclasses.asdict(params)
    record["phase_steps"] = params.phase_steps()
    record["final_steps"] = params.final_steps()
    record["total_steps"] = params.total_steps()
    _emit(record)
    return 0


def cmd_feasibility(args) -> int:
    steps = feas.total_steps(args.n, args.epsilon)
    ops = feas.ryser_ops(args.n)
    _emit(
        {
            "n": args.n,
            "epsilon": args.epsilon,
            "total_steps": str(steps),
            "ryser_ops": str(ops),
            "ratio": steps / ops,
            "projected_years": feas.projected_time(steps, args.rate),
            "rate": args.rate,
        }
    )
    return 0


def cmd_crossover(args) -> int:
    _emit({"epsilon": args.epsilon, "crossover": feas.crossover(args.epsilon)})
    return 0


def cmd_trials(args) -> int:
    with open(args.config, "r", encoding="ascii") as fh:
        try:
            raw = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"trials config {args.config}: {exc}") from None
    entries = raw if isinstance(raw, list) else [raw]
    configs = []
    for index, entry in enumerate(entries):
        try:
            trial = from_record(TrialConfig, entry, matrix_path="")
        except ValueError as exc:
            raise ValueError(f"trials config entry {index}: {exc}") from None
        configs += configs_from_manifest(
            args.manifest, trial.epsilon, trial.relax, trial.seed, trial.label
        )
    count = write_results(run_trials(configs, workers=args.workers), args.out)
    _emit({"trials": count, "out": args.out})
    return 0


def cmd_report(args) -> int:
    rows = aggregate(read_results(args.results))
    for row in rows:
        _emit(dataclasses.asdict(row))
    if args.csv:
        write_summary_csv(rows, args.csv)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permlab",
        description="Exact and MCMC-approximate {0,1} matrix permanents",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance suite")
    p.add_argument(
        "--sizes", type=_parse_sizes, default="4,6,8,10", help="comma-separated side lengths"
    )
    p.add_argument(
        "--densities",
        type=_parse_densities,
        default="3/4,7/8",
        help="comma-separated fractions of n^2",
    )
    p.add_argument("--count", type=int, default=10, help="instances per (size, density) cell")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("exact", help="exact permanent of a .pmat file")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("estimate", help="MCMC estimate of a .pmat file")
    p.add_argument("matrix")
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument(
        "--relax",
        type=_parse_relax,
        default=[1, 1, 1, 1],
        help="four divisors: s_phase,t_phase,s_final,t_final",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quiet", action="store_true", help="print no stage lines on stderr")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("params", help="sampling parameters for n and epsilon")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("feasibility", help="step totals vs Ryser operation count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--rate", type=float, default=1e9, help="chain steps per second")
    p.set_defaults(func=cmd_feasibility)

    p = sub.add_parser("crossover", help="first n where the estimator beats Ryser")
    p.add_argument("--epsilon", type=float, default=0.5)
    p.set_defaults(func=cmd_crossover)

    p = sub.add_parser("trials", help="run a trial batch from manifest and config")
    p.add_argument("manifest")
    p.add_argument("config", help="JSON object or list: epsilon, relax, seed, label")
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes; default from PERMLAB_WORKERS, else 1",
    )
    p.add_argument("--out", required=True, help="JSONL results path")
    p.set_defaults(func=cmd_trials)

    p = sub.add_parser("report", help="aggregate a JSONL results file")
    p.add_argument("results")
    p.add_argument("--csv", default=None, help="also write summary rows as CSV")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        # Flushed here, so that a closed stdout raises below and not at exit.
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader of stdout is gone (`permlab params ... | head -c 50`),
        # which says nothing about the input: no error line. stdout now
        # points at devnull, so the flush at exit raises nothing either.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (OSError, ValueError) as exc:
        # MatrixParseError is a ValueError; it names the offending line.
        print(f"permlab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
