"""The benchmark's workloads: inputs from a seed, one timed operation, checks.

Each workload has three steps. ``setup`` is the program's own set-up (instance
or suite generation and the sampling parameters) and is timed as ``setup_s``.
``run`` is the timed operation. ``check`` is the benchmark's own verification
and is not timed: it applies seed-independent invariants to every output and,
for the seed the fingerprints were pinned at, compares them bit for bit.

Every call into permlab goes through its module attribute
(``fpras.estimate_permanent``, not a name imported here), so that the tracer's
wrappers see it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from permlab import exact, fpras, harness, matrix, params
from permlab.params import RelaxationFactors

EPSILON = 0.5
# Criterion 8's relaxation with s_phase = 1: full per-phase sample counts, so
# phase sampling (about 6.2 M walk calls) is the largest share of the run.
RELAX_TALLY = RelaxationFactors(1, 262_144, 80, 640)
# Criterion 8's relaxation with ten times its per-phase samples (2,593): at
# criterion 8's 259, about one trial in ten leaves a hole unsampled and returns
# the -1 sentinel. Burn-in is still 95 % of the steps.
RELAX_BURNIN = RelaxationFactors(100, 262_144, 80, 640)
TRIAL_DENSITIES = ((3, 4), (7, 8))
TRIAL_WORKERS = 2
RYSER_SIZES = (18, 19, 20)
RYSER_DENSITIES = ((1, 4), (7, 8))


@dataclass
class Checked:
    """Outcome of checking one timed operation's outputs."""

    work: int  # chain steps, or Ryser Gray-code subsets
    attempted: int
    failures: dict[int, str] = field(default_factory=dict)  # operation index -> reason


def matrix_with_matching(n: int, ones: int, seed: int):
    """First of the seeds seed, seed + 2^32, ... whose matrix has a perfect matching.

    Instances without one have permanent 0: the estimator returns without
    running the chain and Ryser's row products stop at the zero row, so they
    would be a different workload.
    """
    attempt = 0
    while True:
        m = matrix.generate_random(n, ones, seed + (attempt << 32))
        if matrix.find_perfect_matching(m) is not None:
            return m
        attempt += 1


def estimate_fingerprint(value: float, steps_taken: int) -> list:
    return [value.hex(), steps_taken]


def relaxed_total_steps(relax: RelaxationFactors) -> int:
    return params.apply_relaxation(params.compute_params(4, EPSILON), relax).total_steps()


class EstimateTally:
    """One estimate at n = 4 whose time goes to phase sampling and its tally."""

    name = "estimate-tally"
    pooled = False

    def setup(self, seed: int, workdir: Path) -> dict:
        params.phase_schedule(4)
        return {
            "matrix": matrix_with_matching(4, 12, 42 + seed),
            "estimator_seed": 424_242 + seed,
            "expected_steps": relaxed_total_steps(RELAX_TALLY),
        }

    def run(self, state: dict) -> list:
        return [
            fpras.estimate_permanent(state["matrix"], EPSILON, RELAX_TALLY, seed=state["estimator_seed"])
        ]

    def check(self, state: dict, estimates: list, pinned) -> Checked:
        exact_value = exact.permanent_naive(state["matrix"])
        checked = Checked(sum(e.steps_taken for e in estimates), len(estimates))
        for i, e in enumerate(estimates):
            if e.failed:
                checked.failures[i] = f"estimator failed: {e.failure_reason}"
            elif e.steps_taken != state["expected_steps"]:
                checked.failures[i] = f"{e.steps_taken} steps, expected {state['expected_steps']}"
            elif not harness.within_multiplicative_bound(e.value, exact_value, EPSILON):
                checked.failures[i] = f"estimate {e.value} outside (1+eps) of {exact_value}"
            elif pinned is not None and estimate_fingerprint(e.value, e.steps_taken) != pinned[i]:
                checked.failures[i] = f"fingerprint {estimate_fingerprint(e.value, e.steps_taken)} != {pinned[i]}"
        return checked

    def fingerprints(self, estimates: list) -> list:
        return [estimate_fingerprint(e.value, e.steps_taken) for e in estimates]


class TrialsBurnin:
    """A burn-in-bound trial batch on a 2-worker pool, then the results file round trip."""

    name = "trials-burnin"
    pooled = True  # the chain runs in pool workers, not in this process

    def setup(self, seed: int, workdir: Path) -> dict:
        suite = workdir / "suite"
        harness.generate_suite([4], TRIAL_DENSITIES, 2, seed, suite)
        params.phase_schedule(4)
        return {
            "configs": harness.configs_from_manifest(
                suite / "manifest.json", EPSILON, RELAX_BURNIN, 424_242 + seed
            ),
            "expected_steps": relaxed_total_steps(RELAX_BURNIN),
            "workdir": workdir,
        }

    def run(self, state: dict) -> dict:
        results = list(harness.run_trials(state["configs"], workers=TRIAL_WORKERS))
        results_path = state["workdir"] / "results.jsonl"
        csv_path = state["workdir"] / "summary.csv"
        harness.write_results(results, results_path)
        read_back = harness.read_results(results_path)
        rows = harness.aggregate(read_back)
        harness.write_summary_csv(rows, csv_path)
        return {
            "results": results,
            "read_back": read_back,
            "rows": rows,
            "csv_lines": csv_path.read_text(encoding="ascii").splitlines(),
        }

    def check(self, state: dict, output: dict, pinned) -> Checked:
        results = output["results"]
        # One operation per trial, plus the write/read/aggregate/CSV round trip.
        checked = Checked(sum(r.steps_taken for r in results), len(results) + 1)
        if len(results) != len(state["configs"]):
            checked.failures[len(results)] = f"{len(results)} results for {len(state['configs'])} trials"
        fingerprints = self.fingerprints(output)
        for i, (config, r) in enumerate(zip(state["configs"], results)):
            oracle = exact.permanent_naive(matrix.load_matrix(config.matrix_path))
            expected_steps = state["expected_steps"] if oracle else 0
            if r.failed or r.error is not None:
                checked.failures[i] = f"trial failed: {r.error or r.estimate}"
            elif r.exact != oracle:
                checked.failures[i] = f"exact {r.exact}, permutation sum {oracle}"
            elif r.steps_taken != expected_steps or (r.estimate > 0) != (oracle > 0):
                checked.failures[i] = f"{r.steps_taken} steps and estimate {r.estimate} for permanent {oracle}"
            elif pinned is not None and fingerprints[i] != pinned[i]:
                checked.failures[i] = f"fingerprint {fingerprints[i]} != {pinned[i]}"
        rows = output["rows"]
        if (
            output["read_back"] != results
            or sum(row.trials for row in rows) != len(results)
            or sum(row.failures for row in rows) != sum(r.failed for r in results)
            or len(output["csv_lines"]) != 1 + len(rows)
        ):
            checked.failures[len(results)] = "results file round trip does not match the batch"
        return checked

    def fingerprints(self, output: dict) -> list:
        return [[r.exact, *estimate_fingerprint(r.estimate, r.steps_taken)] for r in output["results"]]


def gf2_determinant(m) -> int:
    """det(m) mod 2 by elimination over GF(2); it equals perm(m) mod 2."""
    rows = list(m.row_masks())
    for col in range(m.n):
        bit = 1 << col
        pivot = next((i for i in range(col, m.n) if rows[i] & bit), None)
        if pivot is None:
            return 0
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for i in range(col + 1, m.n):
            if rows[i] & bit:
                rows[i] ^= rows[col]
    return 1


def log_bregman_bound(m) -> float:
    """ln of Bregman's bound perm(m) <= prod over rows of (r_i!)^(1/r_i)."""
    return sum(math.lgamma(r + 1) / r for r in (sum(row) for row in m.rows) if r)


class ExactRyser:
    """Ryser's Gray-code permanent at n = 18, 19, 20 and two densities."""

    name = "exact-ryser"
    pooled = False

    def setup(self, seed: int, workdir: Path) -> dict:
        matrices = []
        for n in RYSER_SIZES:
            for num, den in RYSER_DENSITIES:
                ones = harness.ones_for_density(n, num, den)
                matrices.append(matrix_with_matching(n, ones, seed * 1_000_003 + len(matrices)))
        return {"matrices": matrices}

    def run(self, state: dict) -> list:
        return [exact.permanent_ryser(m) for m in state["matrices"]]

    def check(self, state: dict, permanents: list, pinned) -> Checked:
        matrices = state["matrices"]
        checked = Checked(sum((1 << m.n) - 1 for m in matrices), len(matrices))
        if len(permanents) != len(matrices):
            checked.failures[len(matrices) - 1] = f"{len(permanents)} permanents for {len(matrices)} matrices"
        for i, (m, value) in enumerate(zip(matrices, permanents)):
            # A perfect matching exists, so the permanent is at least 1.
            if value < 1 or math.log(value) > log_bregman_bound(m) + 1e-9:
                checked.failures[i] = f"permanent {value} outside [1, Bregman bound]"
            elif value % 2 != gf2_determinant(m):
                checked.failures[i] = f"permanent {value} has the wrong parity"
            elif pinned is not None and str(value) != pinned[i]:
                checked.failures[i] = f"permanent {value} != pinned {pinned[i]}"
        return checked

    def fingerprints(self, permanents: list) -> list:
        return [str(value) for value in permanents]


WORKLOADS = {w.name: w for w in (EstimateTally(), TrialsBurnin(), ExactRyser())}
