"""Batch experiment runner: suite generation, trials, aggregation, persistence.

A suite is a directory of .pmat files plus a JSON manifest recording each
instance's seed, ones count, and exact permanent. Trials pair a matrix with
an error bound, relaxation factors, and a seed; each trial computes the
exact permanent (Ryser), runs the estimator, and emits one TrialResult,
built in one place for every outcome. A trial whose matrix cannot be read,
whose matrix is too large for Ryser (n > 34), whose instance or epsilon the
estimator rejects, whose run ends in a PhaseFailure, or whose exact or
estimator run raises any other exception has no estimate: its
record has ``failed`` set, estimate -1.0, ``rel_error`` and ``within_bound``
None and ``error`` saying why (``exact`` is 0 where Ryser refused), and the
batch goes on.
Results persist as JSON Lines, one record per line, written afresh on each
run; a CSV export, whose columns are SummaryRow's fields, serves
table-building. ``from_record`` checks every JSON record of trial settings:
a results line as a TrialResult, a trials config entry as a TrialConfig.

Error accounting: a trial's relative error is max(estimate/exact,
exact/estimate) - 1, the multiplicative form matching the estimator's
(1+eps) guarantee. The ratio is evaluated in exact rational arithmetic
against the integer permanent, never against a float copy of it. Aggregate
rows report the mean error excluding failures, the count of estimates
outside the (1+eps) band excluding failures, the failure count, and the
mean wall time, grouped by instance size.
"""

from __future__ import annotations

import csv
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, astuple, dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .exact import KERNEL_LIMIT, permanent_ryser
from .fpras import estimate_permanent
from .matrix import generate_random, load_matrix, save_matrix
from .params import RelaxationFactors, check_epsilon
from .rng import RNG_ALGORITHM, check_seed

SCHEMA_VERSION = "2"

WORKERS_ENV_VAR = "PERMLAB_WORKERS"


def default_workers() -> int:
    """The worker count in ``PERMLAB_WORKERS``: 1 when it is unset or empty."""
    value = os.environ.get(WORKERS_ENV_VAR)
    if not value:
        return 1
    try:
        workers = int(value)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"{WORKERS_ENV_VAR} must be a positive integer, got {value!r}")
    return workers


@dataclass(frozen=True)
class TrialConfig:
    """One trial's settings, which a trials config entry gives but for
    ``matrix_path``; refuses a bad ``epsilon`` or ``seed``."""

    matrix_path: str
    epsilon: float
    relax: RelaxationFactors = RelaxationFactors()
    seed: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        check_epsilon(self.epsilon)
        check_seed(self.seed)


@dataclass(frozen=True)
class TrialResult:
    n: int
    ones_count: int
    seed: int
    exact: int
    estimate: float
    rel_error: float | None
    failed: bool
    within_bound: bool | None
    steps_taken: int
    wall_seconds: float
    # The trial's settings, as in its TrialConfig; relax is written as the
    # four-number list of a trials config.
    epsilon: float
    relax: RelaxationFactors
    label: str = ""
    matrix_path: str = ""
    error: str | None = None

    def to_json(self) -> str:
        record = asdict(self)
        record["relax"] = astuple(self.relax)
        record["schema_version"] = SCHEMA_VERSION
        return json.dumps(record, sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, line: str) -> "TrialResult":
        """Parse one results line; raises ValueError for any other record.

        A line without ``schema_version`` is taken as the current version.
        """
        record = json.loads(line)
        if isinstance(record, dict):
            version = record.pop("schema_version", SCHEMA_VERSION)
            if version != SCHEMA_VERSION:
                raise ValueError(f"schema_version must be {SCHEMA_VERSION!r}, got {version!r}")
        return from_record(cls, record)


def from_record(cls, record, **supplied):
    """Dataclass ``cls`` from a parsed JSON object (its relax converted in
    place) and the ``supplied`` fields; one ValueError names every missing or
    unknown key and every value that fails its field's JSON type or check."""
    if not isinstance(record, dict):
        raise ValueError(f"expected a JSON object, got {record!r}")
    known = [f for f in fields(cls) if f.name not in supplied]
    missing = [f.name for f in known if f.default is MISSING and f.name not in record]
    unknown = sorted(record.keys() - {f.name for f in known})
    problems = ["missing keys " + ", ".join(missing)] if missing else []
    if unknown:
        problems.append("unknown keys " + ", ".join(unknown))
    for f in known:
        if f.name in record:
            value = record[f.name]
            try:
                if f.name == "relax":
                    record["relax"] = RelaxationFactors.from_sequence(value)
                elif not _json_value_fits(value, f.type):
                    problems.append(f"{f.name} must be {f.type}, got {value!r}")
                elif f.name in _VALUE_CHECKS:
                    _VALUE_CHECKS[f.name](value)
            except ValueError as exc:
                problems.append(str(exc))
    if problems:
        raise ValueError("; ".join(problems))
    return cls(**record, **supplied)


# JSON value types for the annotations of the checked fields, and the checks
# that values of the named fields pass besides.
_JSON_TYPES = {"int": int, "float": float, "bool": bool, "str": str, "None": type(None)}
_VALUE_CHECKS = {"epsilon": check_epsilon, "seed": check_seed}


def _json_value_fits(value, annotation: str) -> bool:
    """Whether a parsed JSON value fits an annotation such as ``float | None``.

    A JSON true or false is a Python bool, which is an int too, so it fits
    only ``bool``. A ``float`` must be finite: json.loads takes NaN,
    Infinity and an overflowing 1e999, which JSON cannot spell.
    """
    names = annotation.split(" | ")
    if isinstance(value, bool):
        return "bool" in names
    if "float" in names and isinstance(value, (int, float)):
        return abs(value) <= sys.float_info.max
    return any(isinstance(value, _JSON_TYPES[name]) for name in names)


def relative_error(estimate: float, exact: int) -> float | None:
    """Multiplicative error max(est/exact, exact/est) - 1, or None if undefined."""
    if estimate <= 0 or exact <= 0:
        return None
    ratio = Fraction(estimate) / exact
    worse = max(ratio, 1 / ratio)
    return float(worse - 1)


def within_multiplicative_bound(estimate: float, exact: int, epsilon: float) -> bool | None:
    """Whether exact/(1+eps) <= estimate <= (1+eps) * exact, in exact arithmetic."""
    if estimate <= 0 or exact <= 0:
        return None
    bound = 1 + Fraction(epsilon)
    est = Fraction(estimate)
    return exact / bound <= est <= exact * bound


def run_single_trial(config: TrialConfig) -> TrialResult:
    """One matrix: exact permanent, then a timed estimator run.

    Every outcome is one record. A trial without an estimate has estimate
    -1.0, ``failed`` set and ``error`` saying why (an exception other than
    ``ValueError`` as "<TypeName>: <message>"); its steps and wall time stay
    0 where the estimator was never run, rejected the instance or raised.
    """
    m, exact, value, steps, wall, error = None, 0, -1.0, 0, 0.0, None
    try:
        m = load_matrix(config.matrix_path)
    except (OSError, ValueError) as exc:
        error = f"unreadable matrix: {exc}"
    else:
        try:
            exact = permanent_ryser(m)
            started = time.perf_counter()
            estimate = estimate_permanent(m, config.epsilon, config.relax, config.seed)
        except ValueError as exc:
            error = str(exc)
        except Exception as exc:
            # Any other fault fails this trial, not the batch.
            error = f"{type(exc).__name__}: {exc}"
        else:
            wall = time.perf_counter() - started
            value, steps = estimate.value, estimate.steps_taken
            if estimate.failed:
                error = f"phase {estimate.failed_phase}: {estimate.failure_reason}"
    return TrialResult(
        n=0 if m is None else m.n,
        ones_count=0 if m is None else m.ones_count(),
        seed=config.seed,
        exact=exact,
        estimate=value,
        rel_error=relative_error(value, exact),
        failed=error is not None,
        within_bound=within_multiplicative_bound(value, exact, config.epsilon),
        steps_taken=steps,
        wall_seconds=wall,
        epsilon=config.epsilon,
        relax=config.relax,
        label=config.label,
        matrix_path=config.matrix_path,
        error=error,
    )


def run_trials(configs: Sequence[TrialConfig], workers: int | None = None) -> Iterator[TrialResult]:
    """Run trials on a bounded worker pool, yielding results in config order.

    Each trial is seeded independently, so the result set is identical for
    any worker count; yielding in input order keeps persisted output
    byte-stable apart from wall times. The pool has at most one worker per
    trial: it may start all of its workers at once. ``workers`` None means
    ``default_workers()``; a bad count raises ValueError at the call.
    """
    if workers is None:
        workers = default_workers()
    elif workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers}")
    return _run_trials(configs, min(workers, len(configs)))


def _run_trials(configs: Sequence[TrialConfig], workers: int) -> Iterator[TrialResult]:
    if workers <= 1:
        for config in configs:
            yield run_single_trial(config)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(run_single_trial, config) for config in configs]
        for future in futures:
            yield future.result()


def write_results(results: Iterable[TrialResult], path) -> int:
    """Write one JSON line per result, replacing ``path``; returns the count."""
    count = 0
    with open(path, "w", encoding="ascii") as fh:
        for result in results:
            fh.write(result.to_json() + "\n")
            count += 1
    return count


def read_results(path) -> list[TrialResult]:
    with open(path, "r", encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    out = []
    for number, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if line:
            try:
                out.append(TrialResult.from_json(line))
            except ValueError as exc:
                raise ValueError(f"{path}, line {number}: {exc}") from None
    return out


@dataclass(frozen=True)
class SummaryRow:
    group: int
    trials: int
    mean_rel_error: float | None
    misestimates: int
    failures: int
    mean_wall_seconds: float


def aggregate(results: Sequence[TrialResult]) -> list[SummaryRow]:
    """Per-size summary rows in ascending n order.

    Failures are excluded from the error mean and the out-of-bound count and
    reported separately. Trials whose error is undefined for benign reasons
    (exact permanent zero) contribute to neither. A mean past the float
    range raises ValueError.
    """
    if not results:
        raise ValueError("no results to aggregate")
    groups: dict[int, list[TrialResult]] = {}
    for result in results:
        groups.setdefault(result.n, []).append(result)
    rows = []
    for key in sorted(groups):
        bucket = groups[key]
        errors = [r.rel_error for r in bucket if not r.failed and r.rel_error is not None]
        misses = sum(1 for r in bucket if not r.failed and r.within_bound is False)
        failures = sum(1 for r in bucket if r.failed)
        rows.append(
            SummaryRow(
                group=key,
                trials=len(bucket),
                mean_rel_error=_mean(errors, key, "mean_rel_error") if errors else None,
                misestimates=misses,
                failures=failures,
                mean_wall_seconds=_mean([r.wall_seconds for r in bucket], key, "mean_wall_seconds"),
            )
        )
    return rows


def _mean(values: list, group: int, name: str) -> float:
    # Summed as floats, so a sum past the float range is inf, not an OverflowError.
    mean = sum(map(float, values)) / len(values)
    if not abs(mean) <= sys.float_info.max:
        raise ValueError(f"group {group}: {name} is {mean}, which JSON cannot spell")
    return mean


def write_summary_csv(rows: Sequence[SummaryRow], path) -> None:
    """One CSV line per row, under a header of SummaryRow's field names.

    None is written as an empty cell and a float with six decimals.
    """
    names = [f.name for f in fields(SummaryRow)]
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in rows:
            writer.writerow([_csv_cell(getattr(row, name)) for name in names])


def _csv_cell(value):
    if value is None:
        return ""
    return f"{value:.6f}" if isinstance(value, float) else value


def ones_for_density(n: int, numerator: int, denominator: int) -> int:
    """Ones count for a density fraction of n^2, rounded half to even."""
    return round(Fraction(numerator * n * n, denominator))


def generate_suite(
    sizes: Sequence[int],
    densities: Sequence[tuple[int, int]],
    count: int,
    seed: int,
    out_dir,
) -> dict:
    """Write a suite of random instances plus a manifest.

    ``densities`` holds (numerator, denominator) fractions of n^2. Instance
    seeds derive deterministically from the master seed and the instance
    index. Exact permanents are computed with Ryser and recorded; instances
    are never filtered on the permanent, a zero simply stays in the suite.
    A bad seed, a count below 1, a size outside [1, ``KERNEL_LIMIT``] or a
    density outside [0, 1] raises ValueError before ``out_dir`` is made.
    """
    check_seed(seed)
    if count < 1:
        raise ValueError(f"count must be a positive integer, got {count}")
    for n in sizes:
        if not 1 <= n <= KERNEL_LIMIT:
            raise ValueError(
                f"suite sizes must be in [1, {KERNEL_LIMIT}], the n permanent_ryser takes, got {n}"
            )
    for num, den in densities:
        if den < 1 or not 0 <= num <= den:
            raise ValueError(
                f"suite densities must be in [0, 1] with a positive denominator, got {num}/{den}"
            )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    index = 0
    for n in sizes:
        for num, den in densities:
            ones = ones_for_density(n, num, den)
            for _ in range(count):
                instance_seed = seed * 1_000_003 + index
                m = generate_random(n, ones, instance_seed)
                name = f"n{n}_d{num}-{den}_i{index:04d}.pmat"
                save_matrix(m, out_dir / name)
                entries.append(
                    {
                        "path": name,
                        "n": n,
                        "ones": ones,
                        "density": f"{num}/{den}",
                        "seed": instance_seed,
                        "exact_permanent": str(permanent_ryser(m)),
                    }
                )
                index += 1
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "rng": RNG_ALGORITHM,
        "master_seed": seed,
        "count": len(entries),
        "matrices": entries,
    }
    with open(out_dir / "manifest.json", "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return manifest


def configs_from_manifest(
    manifest_path,
    epsilon: float,
    relax: RelaxationFactors,
    base_seed: int,
    label: str = "",
) -> list[TrialConfig]:
    """One TrialConfig per manifest instance, with derived per-trial seeds.

    A malformed manifest, or a setting TrialConfig refuses, raises
    ValueError before any trial runs; the former names the file and entry.
    """
    manifest_path = Path(manifest_path)
    where = f"manifest {manifest_path}"
    with open(manifest_path, "r", encoding="ascii") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    entries = manifest.get("matrices") if isinstance(manifest, dict) else None
    if not isinstance(entries, list):
        raise ValueError(f"{where}: expected an object with a 'matrices' list")
    configs = []
    for i, entry in enumerate(entries):
        path = entry.get("path") if isinstance(entry, dict) else None
        if not isinstance(path, str):
            raise ValueError(
                f"{where}, matrices entry {i}: expected an object with a string 'path', "
                f"got {entry!r}"
            )
        path = str(manifest_path.parent / path)
        configs.append(TrialConfig(path, epsilon, relax, base_seed + i, label))
    return configs
