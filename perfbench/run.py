"""Layered benchmark for permlab.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root; it imports permlab from ``src/`` and from
nowhere else, and exits with status 2 when the sources are missing.

Workloads (see workloads.py; the seed only generates inputs):

* ``estimate-tally``: one ``estimate_permanent`` at n = 4, eps 0.5, relax
  (1, 262144, 80, 640). Phase sampling and its per-sample tally dominate.
* ``trials-burnin``: a ``generate_suite`` of four n = 4 instances, a
  ``run_trials`` batch on 2 workers at relax (100, 262144, 80, 640), then
  write, read, aggregate and CSV. Burn-in ``walk`` dominates.
* ``exact-ryser``: ``permanent_ryser`` at n = 18, 19, 20, densities 1/4 and
  7/8. Only the exact layer runs.

With ``--trace 0`` the run sets up ``SETUP_REPEATS`` times (each with a fresh
interpreter's ``import permlab``), then repeats the operation until the next
one would end past ``--seconds`` (at least once), and reports end-to-end
metrics as medians over the repetitions:

* ``setup_s``: import, generation and sampling parameters, in seconds.
* ``wall_ref_s``: one operation in reference seconds (refclock.py): its wall
  time, less the sampler's own, scaled by how fast a fixed Python loop ran
  in the same process during it. On a shared host whose speed swings by 2x
  within minutes, raw wall time spreads past any useful bound between runs;
  this does not.
* ``steps_per_ref_s``: walk steps per reference second of the operation.
  These are chain transitions (``steps_taken``) on the estimator workloads,
  the rate that ``permlab feasibility --rate`` projects with, and Gray-code
  subsets, the sum of 2^n - 1, on exact-ryser (printed there as
  ``exact_subsets_per_ref_s``).
* ``peak_rss_mb``: peak resident set of this process plus that of its
  largest child.

The printed table adds each metric's within-run quartiles and maximum, and
the raw ``wall_s`` and ``steps_per_s`` (seconds as measured) beside the
reference ones; the output file keeps every sample of both.

Failed operations (an exception, the -1 sentinel, a broken invariant or a
fingerprint that differs from pins.json) are the result's ``failed`` out of
``attempted``; ``failed_share`` is printed with the metrics.

With ``--trace 1`` the run times one untraced operation, then sets up and
runs once more under the tracer (tracer.py) and reports the per-layer
metrics of layers.py, including the tracing overhead. Both operations are
timed in raw seconds, without the reference clock. End-to-end numbers never
come from a traced run.

Every run writes ``perfbench/out/BENCH_<workload>_seed<seed>_trace<t>.json``
with the run's metadata, per-repetition samples, failures and, when traced,
every span. ``spread.py`` summarises a set of those files.

Seeds: ``DEFAULT_SEED`` (0) is the seed pins.json holds fingerprints for.
``HELD_OUT_SEED`` (201203367) must never be run while a change is being
written; run it once afterwards to re-check a claimed gain on unseen inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PINS = HERE / "pins.json"

DEFAULT_SEED = 0
HELD_OUT_SEED = 201_203_367
SETUP_REPEATS = 7

END_TO_END = {"setup_s": "s", "wall_ref_s": "ref_s", "steps_per_ref_s": "1/ref_s", "peak_rss_mb": "MB"}
# Printed and recorded beside END_TO_END, not reported as metrics.
RAW = {"wall_s": "s", "steps_per_s": "1/s"}

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import permlab; print(time.perf_counter() - t)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Layered benchmark for permlab.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def import_seconds() -> float:
    """``import permlab`` timed inside a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(done.stdout)


def git_commit() -> str | None:
    """HEAD's commit read from .git, without running git outside the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "permlab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(args) -> dict:
    import numpy

    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "run_seconds": args.seconds,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def summary(samples: list[float], unit: str) -> dict:
    """Median, quartiles and maximum of one metric's samples in a run."""
    row = {"median": statistics.median(samples), "max": max(samples), "n": len(samples), "unit": unit}
    if len(samples) >= 2:
        row["q1"], _, row["q3"] = statistics.quantiles(samples, n=4, method="inclusive")
    return row


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "permlab" / "__init__.py").is_file():
        print(f"perfbench: no permlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import permlab

    if Path(permlab.__file__).resolve().parent != (SRC / "permlab").resolve():
        print(f"perfbench: imported permlab from {permlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    pins = json.loads(PINS.read_text())
    pinned = pins["fingerprints"][workload.name] if args.seed == pins["seed"] else None

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload.name}-{args.seed}-{os.getpid()}"
    try:
        return measure(args, workload, pinned, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, pinned, workdir: Path) -> int:
    import layers
    import refclock
    import tracer

    setup_samples = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        started = time.perf_counter()
        state = workload.setup(args.seed, workdir)
        setup_samples.append(imported + time.perf_counter() - started)

    walls, rates, ref_walls, ref_rates, failures, fingerprints = [], [], [], [], [], []
    host_loops = []  # mean reference-loop seconds during each operation
    attempted = 0

    def run_once(state):
        """The timed operation: (output or None, wall seconds, exception or None)."""
        started = time.perf_counter()
        try:
            output = workload.run(state)
        except Exception as exc:  # an operation that raises counts as failed
            return None, time.perf_counter() - started, exc
        return output, time.perf_counter() - started, None

    def run_sampled(state):
        """run_once under the reference clock: adds the operation's reference seconds."""
        if workload.pooled:
            with refclock.PoolSamples(workdir / "refclock") as pool:
                output, wall, error = run_once(state)
            loops, handler_s = pool.collect()
        else:
            with refclock.RefClock() as clock:
                output, wall, error = run_once(state)
            loops, handler_s = clock.loops, clock.handler_s
        host_loops.append(statistics.fmean(loops) if loops else None)
        return output, wall, refclock.reference_seconds(wall - handler_s, loops), error

    def check(state, output, error) -> int:
        """Count the operation's failures; returns the work it did."""
        nonlocal attempted
        if error is not None:
            attempted += 1
            failures.append(f"raised {error!r}")
            return 0
        checked = workload.check(state, output, pinned)
        attempted += checked.attempted
        failures.extend(checked.failures.values())
        fingerprints.append(workload.fingerprints(output))
        return checked.work

    record = {"metadata": metadata(args)}
    if args.trace == 0:
        started = time.perf_counter()
        while True:
            output, wall, ref_wall, error = run_sampled(state)
            work = check(state, output, error)
            walls.append(wall)
            rates.append(work / wall)
            ref_walls.append(ref_wall)
            ref_rates.append(work / ref_wall)
            if time.perf_counter() - started + statistics.median(walls) > args.seconds:
                break
        samples = {
            "setup_s": setup_samples,
            "wall_ref_s": ref_walls,
            "steps_per_ref_s": ref_rates,
            "peak_rss_mb": [peak_rss_mb()],
            "wall_s": walls,
            "steps_per_s": rates,
        }
        rows = {name: summary(samples[name], unit) for name, unit in {**END_TO_END, **RAW}.items()}
        metrics = {name: {"value": rows[name]["median"], "unit": unit} for name, unit in END_TO_END.items()}
        record["samples"] = samples | {"ref_loop_s": host_loops}
        record["summary"] = rows
    else:
        output, untraced_wall, error = run_once(state)
        check(state, output, error)
        spans_dir = workdir / "spans"
        spans_dir.mkdir(parents=True)
        active = tracer.Tracer(pool_dir=spans_dir)
        uninstall = tracer.install(active)
        try:
            state = workload.setup(args.seed, workdir)
            output, traced_wall, error = run_once(state)
        finally:
            uninstall()
        spans = active.finish()
        check(state, output, error)
        unconsumed = active.unconsumed_draws() + active.merge_children(spans_dir)
        values = layers.layer_metrics(spans, unconsumed, untraced_wall, traced_wall)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in layers.PER_LAYER.items()}
        record["samples"] = {"untraced_wall_s": [untraced_wall], "traced_wall_s": [traced_wall]}
        record["spans"] = [span.to_dict() for span in spans]
        rows = {name: {"median": m["value"], "n": 1, "unit": m["unit"]} for name, m in metrics.items()}

    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    record.update(fingerprints=fingerprints, failures=failures, result=result)
    out_file = OUT / f"BENCH_{workload.name}_seed{args.seed}_trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print_table(workload.name, rows, failures, attempted)
    print(f"wrote {out_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def print_table(name: str, rows: dict, failures: list, attempted: int) -> None:
    print(f"{'metric':<36} {'median':>14} {'q1':>14} {'q3':>14} {'max':>14} {'n':>3}  unit")
    for metric, row in rows.items():
        if metric.startswith("steps_per_") and name == "exact-ryser":
            metric = "exact_subsets" + metric[len("steps"):]
        cells = [f"{row[k]:>14.6g}" if k in row else f"{'':>14}" for k in ("median", "q1", "q3", "max")]
        print(f"{metric:<36} {' '.join(cells)} {row['n']:>3}  {row['unit']}")
    print(f"{'failed_share':<36} {len(failures) / attempted:>14.6g}  ({len(failures)} of {attempted} operations)")
    for failure in failures:
        print(f"FAILED: {failure}")


if __name__ == "__main__":
    sys.exit(main())
