"""Analytic step-count comparison: the chain estimator versus exact computation.

All totals are exact integers assembled after each component has been
ceiled, so the results are reproducible regression values rather than
floating approximations. The weight-estimation stages cost
(tau_init + tau_resample * samples) per phase across all phases, and the
refinement stage adds one more initialization plus its own sampling; the
reference totals confirm the refinement stage is included.
"""

from __future__ import annotations

import math

from .params import MAX_N, compute_params

SECONDS_PER_JULIAN_YEAR = 365.25 * 86_400


def total_steps(n: int, epsilon: float) -> int:
    """Total chain transitions required at the analytic (unrelaxed) settings."""
    return compute_params(n, epsilon).total_steps()


def ryser_ops(n: int) -> int:
    """Operation count n * 2^n for the exact inclusion-exclusion algorithm.

    This is the paper's cost model, which ``crossover`` and its n = 68 at
    epsilon 0.5 keep. The compiled ``permanent_ryser`` does about half of
    it: n row updates for each of 2^(n-1) subsets (Nijenhuis and Wilf).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return n * (1 << n)


def crossover(epsilon: float) -> int:
    """Smallest n at which the chain estimator needs fewer steps than Ryser.

    Ascending scan from n = 4; the exponential n * 2^n overtakes the
    polynomial step total quickly, so the scan terminates early. The scan is
    capped to fail loudly rather than loop on a pathological input.
    """
    for n in range(4, MAX_N + 1):
        if total_steps(n, epsilon) < ryser_ops(n):
            return n
    raise RuntimeError(f"no crossover found for epsilon={epsilon} with n up to {MAX_N}")


def projected_time(steps: int, steps_per_second: float) -> float:
    """Runtime in Julian years (365.25 days) at the given stepping rate."""
    # NaN fails both comparisons; neither NaN nor inf has a JSON spelling.
    if not 0 < steps_per_second < math.inf:
        raise ValueError(f"steps_per_second must be positive and finite, got {steps_per_second!r}")
    years = steps / steps_per_second / SECONDS_PER_JULIAN_YEAR
    if not math.isfinite(years):
        raise ValueError(
            f"steps_per_second {steps_per_second!r} is too small: the time for {steps} steps "
            "overflows a float"
        )
    return years
