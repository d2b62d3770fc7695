"""Annealed MCMC estimator for the {0,1} matrix permanent.

The estimator cools the activity along the phase schedule. Each phase walks
the chain at the current activity and hole weights, collects compressed
sample statistics, refines the hole weights from the observed perfect and
per-hole sample counts, advances the activity, and records the stage weight
ratio. A final refinement stage at the terminal activity measures the
fraction of samples that are perfect matchings of the instance itself. The
estimate assembles, in log space,

    (n^2 + 1) * n!  *  Z_0 * Z_1 * ... * Z_{l-1}  *  Y

where the leading factor is the chain's total weight at the initial setting,
each Z_i is the sampled ratio of consecutive stage weights, and Y is the
final perfect-matching fraction.

Samples are never stored individually. A sample is fully described for both
the weight update and the ratio Z_i by its hole position (or none) and its
count of matched non-instance pairs, so each phase keeps only a table of
counts keyed by those two values. Recomputing a Z_i from a stored table
reproduces the recorded value bit for bit.

A phase that leaves any hole position unsampled, or collects no perfect
samples at all, has no defined weight update; the run then stops and reports
the failure sentinel -1. The same sentinel covers a final stage that sees no
instance-perfect samples.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

from .chain import ChainSampler, WeightTable, exact_stationary, lambda_edges
from .matrix import Matrix, find_perfect_matching
from .params import (
    RelaxationFactors,
    SamplingParams,
    apply_relaxation,
    compute_params,
    log_factorial,
    phase_schedule,
)
from .rng import BufferedDraws


class PhaseFailure(Exception):
    """A weight-estimation phase produced an unusable sample set."""

    def __init__(self, phase: int, reason: str):
        super().__init__(f"phase {phase}: {reason}")
        self.phase = phase
        self.reason = reason


@dataclass
class PhaseStats:
    """Compressed sample table for one stage.

    ``perfect`` maps a non-instance pair count k to the number of perfect
    samples seen with that k; ``holes`` maps a hole position to the same
    kind of table for near-perfect samples. Counts are floats so that an
    exact distribution can stand in for sampled frequencies.
    """

    n: int
    perfect: dict[int, float] = field(default_factory=dict)
    holes: dict[tuple[int, int], dict[int, float]] = field(default_factory=dict)
    total: float = 0.0

    def record(self, hole: tuple[int, int] | None, k: int, weight: float = 1.0) -> None:
        if hole is None:
            table = self.perfect
        else:
            table = self.holes.setdefault(hole, {})
        table[k] = table.get(k, 0.0) + weight
        self.total += weight

    def perfect_count(self) -> float:
        return sum(self.perfect.values())

    def hole_count(self, hole: tuple[int, int]) -> float:
        return sum(self.holes.get(hole, {}).values())


@dataclass(frozen=True)
class Estimate:
    """Result of one estimator run.

    ``value`` is -1.0 when the run failed, 0.0 when the instance has no
    perfect matching (the permanent is exactly zero and the chain is never
    started), and the positive estimate otherwise. ``log_value`` is only
    meaningful for positive values. ``z_ratios`` holds the stage weight
    ratios in run order, and ``steps_taken`` counts every transition
    attempt, accepted or not.
    """

    value: float
    log_value: float | None
    z_ratios: tuple[float, ...]
    y_bar: float | None
    steps_taken: int
    failed_phase: int | None = None
    failure_reason: str | None = None

    @property
    def failed(self) -> bool:
        return self.value == -1.0


def run_phase(
    sampler: ChainSampler,
    tau_init: int,
    tau_resample: int,
    num_samples: int,
) -> PhaseStats:
    """Walk the initialization steps, then collect spaced samples.

    Consumes exactly tau_init + tau_resample * num_samples transitions and
    returns the compressed sample table. The sampler is left standing on
    the final state, which seeds the next stage.
    """
    stats = PhaseStats(sampler.n)
    sampler.walk(tau_init)
    for _ in range(num_samples):
        sampler.walk(tau_resample)
        stats.record(sampler.hole(), sampler.lambda_count)
    return stats


def update_weights(stats: PhaseStats, wt: WeightTable, phase: int = 0) -> WeightTable:
    """Refine hole weights from observed class frequencies.

    Each hole weight is multiplied by (perfect count / hole count), i.e. in
    log space ln w'(u,v) = ln w(u,v) + ln |S_p| - ln |S_{u,v}|. Raises
    PhaseFailure when the perfect count or any hole count is zero, because
    the ratio is then undefined.
    """
    n = wt.n
    s_p = stats.perfect_count()
    if s_p <= 0:
        raise PhaseFailure(phase, "no perfect-matching samples collected")
    log_sp = math.log(s_p)
    new_log_w = list(wt.log_w)
    for u in range(n):
        for v in range(n):
            s_uv = stats.hole_count((u, v))
            if s_uv <= 0:
                raise PhaseFailure(phase, f"no samples collected for hole ({u}, {v})")
            new_log_w[u * n + v] += log_sp - math.log(s_uv)
    return wt.with_updates(log_w=new_log_w)


def phase_ratio(stats: PhaseStats, old: WeightTable, new: WeightTable) -> float:
    """ln of the sample-mean weight ratio between consecutive stages.

    For a sample with non-instance pair count k and hole h (or no hole),
    the per-sample ratio is exp(k * d_lambda + d_log_w(h)) where d_lambda
    and d_log_w are the log-space changes between the tables. The mean is
    taken over the compressed table, which is lossless for this statistic.
    """
    if old.n != new.n:
        raise ValueError("weight tables of different sizes")
    n = old.n
    d_lambda = new.log_lambda - old.log_lambda
    acc = 0.0
    for k, count in stats.perfect.items():
        acc += count * math.exp(k * d_lambda)
    for (u, v), table in stats.holes.items():
        d_hole = new.log_w[u * n + v] - old.log_w[u * n + v]
        for k, count in table.items():
            acc += count * math.exp(k * d_lambda + d_hole)
    return math.log(acc / stats.total)


def final_refinement(
    sampler: ChainSampler,
    tau_init: int,
    tau_resample: int,
    num_samples: int,
) -> float:
    """Fraction of spaced samples that are perfect matchings of the instance.

    The fraction may be 0.0; ``run_schedule`` turns that into the final
    stage's failure.
    """
    sampler.walk(tau_init)
    hits = 0
    for _ in range(num_samples):
        sampler.walk(tau_resample)
        if sampler.is_perfect and sampler.lambda_count == 0:
            hits += 1
    return hits / num_samples


def run_schedule(
    wt: WeightTable,
    lambdas,
    sample_stage: Callable[[WeightTable], PhaseStats],
    sample_final: Callable[[WeightTable], float],
    progress: Callable[[int, float], None] | None = None,
) -> tuple[float, list[float], float]:
    """Annealing driver shared by the sampled and exact paths.

    Stage i samples at lambdas[i] via ``sample_stage(wt)``, updates the
    weights, advances the activity to lambdas[i+1], and records ln Z_i.
    ``sample_final`` runs at the terminal entry and returns the fraction Y
    of instance-perfect samples. Returns (ln estimate, [ln Z_i], Y). Raises
    PhaseFailure for an undefined weight update, and for Y = 0 as stage l.
    """
    log_z: list[float] = []
    for i in range(len(lambdas) - 1):
        if progress is not None:
            progress(i, lambdas[i])
        stats = sample_stage(wt)
        updated = update_weights(stats, wt, phase=i)
        advanced = updated.with_updates(log_lambda=lambdas[i + 1])
        log_z.append(phase_ratio(stats, wt, advanced))
        wt = advanced
    y_bar = sample_final(wt)
    if y_bar == 0.0:
        raise PhaseFailure(len(lambdas) - 1, "no instance-perfect samples in the final stage")
    n = wt.n
    # The order of the terms is part of the seed-to-estimate mapping that
    # the golden pins fix bit for bit.
    log_value = math.log(n * n + 1) + log_factorial(n) + sum(log_z) + math.log(y_bar)
    return log_value, log_z, y_bar


def estimate_permanent(
    m: Matrix,
    epsilon: float,
    relax: RelaxationFactors | None = None,
    seed: int = 0,
    params: SamplingParams | None = None,
    progress: bool = False,
) -> Estimate:
    """Full estimator run on one instance.

    An instance with no perfect matching returns the exact value 0 without
    touching the chain. Otherwise the witness matching starts the chain,
    every later stage starts from the previous stage's last state, and the
    run is a pure function of (matrix, epsilon, relax, seed).

    ``params`` overrides the computed sampling parameters (relaxation is
    still applied); it exists for tests and calibration runs.
    """
    relax = relax or RelaxationFactors.identity()
    start_matching = find_perfect_matching(m)
    if start_matching is None:
        return Estimate(value=0.0, log_value=None, z_ratios=(), y_bar=None, steps_taken=0)
    if params is None:
        params = compute_params(m.n, epsilon)
    params = apply_relaxation(params, relax)
    schedule = phase_schedule(m.n)
    wt = WeightTable.initial(m)
    draws = BufferedDraws(seed, m.n)
    sampler = ChainSampler(wt, start_matching, draws)

    def sample_stage(stage_wt: WeightTable) -> PhaseStats:
        sampler.set_weights(stage_wt)
        return run_phase(
            sampler, params.tau_init, params.tau_resample_phase, params.samples_phase
        )

    def sample_final(stage_wt: WeightTable) -> float:
        sampler.set_weights(stage_wt)
        return final_refinement(
            sampler, params.tau_init, params.tau_resample_final, params.samples_final
        )

    reporter = None
    if progress:
        t0 = time.monotonic()

        def reporter(stage: int, log_lambda: float) -> None:
            print(
                f"stage {stage}/{schedule.l} ln(lambda)={log_lambda:.6f} "
                f"steps={sampler.steps_taken} elapsed={time.monotonic() - t0:.1f}s",
                file=sys.stderr,
            )

    try:
        log_value, log_z, y_bar = run_schedule(
            wt, schedule.lambdas, sample_stage, sample_final, progress=reporter
        )
    except PhaseFailure as failure:
        return Estimate(
            value=-1.0,
            log_value=None,
            z_ratios=(),
            y_bar=None,
            steps_taken=sampler.steps_taken,
            failed_phase=failure.phase,
            failure_reason=failure.reason,
        )
    return Estimate(
        value=math.exp(log_value),
        log_value=log_value,
        z_ratios=tuple(math.exp(z) for z in log_z),
        y_bar=y_bar,
        steps_taken=sampler.steps_taken,
    )


def exact_distribution_stats(n: int, wt: WeightTable) -> PhaseStats:
    """PhaseStats holding the exact stationary distribution as weights.

    Substituting this for sampled statistics makes the telescoping product
    exact, which checks the estimator's plumbing without stochastics.
    """
    states, probabilities = exact_stationary(n, wt)
    stats = PhaseStats(n)
    for state, probability in zip(states, probabilities):
        stats.record(state.hole, lambda_edges(state, wt), float(probability))
    return stats


def exact_distribution_perfect_fraction(n: int, wt: WeightTable) -> float:
    """Exact stationary mass of instance-perfect matchings."""
    states, probabilities = exact_stationary(n, wt)
    mass = 0.0
    for state, probability in zip(states, probabilities):
        if state.is_perfect and lambda_edges(state, wt) == 0:
            mass += float(probability)
    return mass


def estimate_from_exact_distribution(m: Matrix) -> float:
    """Run the full telescoping pipeline on exact distributions.

    For n <= 3 this returns the permanent up to floating-point rounding,
    exercising the weight-update, ratio, and assembly code with zero
    sampling noise. An instance with no perfect matching returns 0.0
    without running the pipeline, as ``estimate_permanent`` does.
    """
    if find_perfect_matching(m) is None:
        return 0.0
    n = m.n
    wt = WeightTable.initial(m)

    def sample_stage(stage_wt: WeightTable) -> PhaseStats:
        return exact_distribution_stats(n, stage_wt)

    def sample_final(stage_wt: WeightTable) -> float:
        return exact_distribution_perfect_fraction(n, stage_wt)

    log_value, _, _ = run_schedule(wt, phase_schedule(n).lambdas, sample_stage, sample_final)
    return math.exp(log_value)
