"""Annealed MCMC estimator for the {0,1} matrix permanent.

The estimator cools the activity along the phase schedule. Each phase walks
the chain at the current activity and hole weights, collects compressed
sample statistics, refines the hole weights from the observed perfect and
per-hole sample counts, advances the activity, and records the stage weight
ratio. The final stage samples at the terminal activity like any other and
reads the fraction of its samples that are perfect matchings of the
instance itself. The estimate assembles, in log space,

    (n^2 + 1) * n!  *  Z_0 * Z_1 * ... * Z_{l-1}  *  Y

where the leading factor is the chain's total weight at the initial setting,
each Z_i is the sampled ratio of consecutive stage weights, and Y is the
final perfect-matching fraction.

Samples are never stored individually. A sample is fully described for both
the weight update and the ratio Z_i by its hole position (or none) and its
count of matched non-instance pairs, so each stage keeps only a table of
counts keyed by those two values, a ``PhaseStats``. A stage is one burn-in
``walk`` and one ``ChainSampler.tally``, the one place that samples are
counted: its kernels count them inside the sampling walk, and it returns
the stage's ``PhaseStats``, decoded once from the counts in the order each
(hole, k) was first seen. Recomputing a Z_i from a stored table reproduces
the recorded value bit for bit.

Every stage, the final one included, is one ``sample_stage`` call that
returns its table. The stages' one outlet is ``on_stage``, which is handed
one ``StageRecord`` per completed stage and never stores it; this module
does no I/O.

A phase that leaves any hole position unsampled, or collects no perfect
samples at all, has no defined weight update; the run then stops and reports
the failure sentinel -1. The same sentinel covers a final stage that sees no
instance-perfect samples.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from .chain import ChainSampler, PhaseStats, WeightTable, enumerate_states, lambda_edges
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


@dataclass(frozen=True)
class StageRecord:
    """What one completed stage saw: the weights it sampled at, its table
    and its log ratio. For stage i < l that is ln Z_i, taken against the
    next record's weights; for stage l it is ln Y, read from the table."""

    index: int
    weights: WeightTable
    stats: PhaseStats
    log_ratio: float


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
    sampler.walk(tau_init)
    return sampler.tally(tau_resample, num_samples)


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
) -> PhaseStats:
    """``run_phase`` for the final stage, whose table ``run_schedule`` reads Y from.

    It stays a function of its own, and does not call ``run_phase``, so that
    a wrapper of either name (a span tracer, say) sees only its own stages.
    """
    sampler.walk(tau_init)
    return sampler.tally(tau_resample, num_samples)


def run_schedule(
    wt: WeightTable,
    lambdas,
    sample_stage: Callable[[WeightTable, bool], PhaseStats],
    on_stage: Callable[[StageRecord], None] | None = None,
) -> tuple[float, list[float], float]:
    """Annealing driver shared by the sampled and exact paths.

    ``sample_stage(wt, final)`` returns the table of one stage sampled at
    ``wt``; ``final`` is True only for the terminal entry. Stage i samples
    at lambdas[i], updates the weights, advances the activity to
    lambdas[i+1], and records ln Z_i. The final stage's table gives Y, the
    fraction of instance-perfect samples. ``on_stage`` gets each successful
    stage's record. Returns (ln estimate, [ln Z_i], Y). Raises PhaseFailure
    for an undefined weight update, and for Y = 0 as stage l.
    """
    l = len(lambdas) - 1
    log_z: list[float] = []
    for i in range(l):
        stats = sample_stage(wt, False)
        updated = update_weights(stats, wt, phase=i)
        advanced = updated.with_updates(log_lambda=lambdas[i + 1])
        log_z.append(phase_ratio(stats, wt, advanced))
        if on_stage is not None:
            on_stage(StageRecord(i, wt, stats, log_z[-1]))
        wt = advanced
    stats = sample_stage(wt, True)
    y_bar = stats.perfect.get(0, 0.0) / stats.total
    if y_bar == 0.0:
        raise PhaseFailure(l, "no instance-perfect samples in the final stage")
    if on_stage is not None:
        on_stage(StageRecord(l, wt, stats, math.log(y_bar)))
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
    on_stage: Callable[[StageRecord], None] | None = None,
) -> Estimate:
    """Full estimator run on one instance.

    An instance with no perfect matching returns the exact value 0 without
    touching the chain. Otherwise the witness matching starts the chain,
    every later stage starts from the previous stage's last state, and the
    run is a pure function of (matrix, epsilon, relax, seed).

    ``params`` overrides the computed sampling parameters (relaxation is
    still applied); it exists for tests and calibration runs.
    """
    relax = relax or RelaxationFactors()
    start_matching = find_perfect_matching(m)
    if start_matching is None:
        return Estimate(value=0.0, log_value=None, z_ratios=(), y_bar=None, steps_taken=0)
    if params is None:
        params = compute_params(m.n, epsilon)
    params = apply_relaxation(params, relax)
    wt = WeightTable.initial(m)
    draws = BufferedDraws(seed, m.n)
    sampler = ChainSampler(wt, start_matching, draws)

    def sample_stage(stage_wt: WeightTable, final: bool) -> PhaseStats:
        sampler.set_weights(stage_wt)
        if final:
            return final_refinement(
                sampler, params.tau_init, params.tau_resample_final, params.samples_final
            )
        return run_phase(
            sampler, params.tau_init, params.tau_resample_phase, params.samples_phase
        )

    try:
        log_value, log_z, y_bar = run_schedule(wt, phase_schedule(m.n).lambdas, sample_stage, on_stage)
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


def state_classes(wt: WeightTable) -> Counter[tuple[tuple[int, int] | None, int]]:
    """The number of enumerated states in each (hole or None, k) class.

    k, the count of non-instance pairs, depends only on the instance, so the
    exact pipeline counts the classes once and reuses them at every stage.
    """
    return Counter((state.hole, lambda_edges(state, wt)) for state in enumerate_states(wt.n))


def exact_distribution_stats(wt: WeightTable, classes: Counter) -> PhaseStats:
    """PhaseStats holding the exact stationary distribution as weights.

    Every state of a (hole, k) class has the weight lambda^k * w(hole), so a
    class's mass is its ``state_classes`` count times that weight; the
    masses are normalised in log space, as ``exact_stationary`` normalises
    the states'. Substituting this for sampled statistics makes the
    telescoping product exact, which checks the estimator's plumbing
    without stochastics.
    """
    log_masses = [
        math.log(count) + k * wt.log_lambda + (0.0 if hole is None else wt.hole_log_w(*hole))
        for (hole, k), count in classes.items()
    ]
    top = max(log_masses)
    masses = [math.exp(log_mass - top) for log_mass in log_masses]
    total = sum(masses)
    stats = PhaseStats()
    for (hole, k), mass in zip(classes, masses):
        stats.record(hole, k, mass / total)
    return stats


def estimate_from_exact_distribution(m: Matrix) -> float:
    """Run the full telescoping pipeline on exact distributions.

    For n <= 6 (the sizes ``enumerate_states`` lists) this returns the
    permanent up to floating-point rounding, exercising the weight-update,
    ratio, and assembly code with zero sampling noise. The final stage gets
    the exact table too, so Y is the exact mass of instance-perfect
    matchings. An instance with no perfect matching returns 0.0 without
    running the pipeline, as ``estimate_permanent`` does.
    """
    if find_perfect_matching(m) is None:
        return 0.0
    wt = WeightTable.initial(m)
    classes = state_classes(wt)

    def sample_stage(stage_wt: WeightTable, final: bool) -> PhaseStats:
        return exact_distribution_stats(stage_wt, classes)

    log_value, _, _ = run_schedule(wt, phase_schedule(m.n).lambdas, sample_stage)
    return math.exp(log_value)
