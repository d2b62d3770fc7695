"""Sampling parameters for the annealed matching-chain estimator.

Everything here is closed-form arithmetic: the activity cooling schedule, the
exact phase count, mixing and resampling step counts, per-stage sample
counts, and the relaxation factors that divide them for experimental runs.

Numeric conventions, pinned by regression tests against known step-count
totals (3,932,754,162,118 at n=4 and 13,285,251,197,747,730,326,655 at n=68,
both with epsilon = 0.5):

* ln(n!) is computed by direct ascending summation of ln(k), not Stirling.
* Every fractional step or sample count is rounded up; a partial phase or
  partial sample cannot be taken.
* The per-phase sample requirement is the max of the weight-estimation bound
  and the counting bound. The counting bound uses the exact expression
  9 / ((1 + eps^2/300)^(1/l) - 1), not its large-n simplification; the
  simplified form roughly doubles the requirement and fails the regression.
  The expression is evaluated as written, not as 9 / expm1(log1p(...)/l),
  which moves samples_phase in 105 of 464 (n, eps) cells at n = 4..119 and
  eps in {1, 0.5, 0.25, 0.1}. Where the power rounds to 1 (eps = 1e-5 at
  n = 68) the bound has no finite value and the epsilon is refused.
* Inside the weight-estimation bound the failure budget 1/(12*l*(n^2+1))
  enters the logarithm directly, giving 475*(n^2+1)*ln(12*l*(n^2+1)). The
  doubled-budget variant ln(24*l*(n^2+1)) overshoots the pinned totals by a
  few percent at large n and is rejected by the same regression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from numbers import Real

# Mixing-time constant: path length (<= n) times congestion (<= 12n) times
# the inverse minimum probability of the perfect-matching class (4(n^2+1)),
# with 7 from the underlying convergence bound: 7 * 12 * 4 = 336.
MIXING_CONSTANT = 336

# Weight-estimation sample constant: 8 / -ln(e^(2^(1/4)-1) / 2^(2^(1/4)/4)),
# rounded up in the source analysis.
WEIGHT_SAMPLE_CONSTANT = 475

LN2 = math.log(2)


def log_factorial(n: int) -> float:
    """ln(n!) by ascending summation, exact to ulp scale for small n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sum(math.log(k) for k in range(1, n + 1))


def state_space_size(n: int) -> int:
    """(n^2 + 1) * n!, the chain's headline size figure.

    This equals the total weight of all states at the initial setting
    (activity 1, every hole weight n): n! perfect matchings of weight 1 plus
    n^2 hole classes each of total weight n * (n-1)! = n!.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return (n * n + 1) * math.factorial(n)


@dataclass(frozen=True)
class PhaseSchedule:
    """Activity trajectory in natural-log space, from ln(1) = 0 downward.

    ``lambdas[j]`` is ln of the activity used in phase j; the final entry is
    the terminal activity, at or below -ln(n!). The phase count l is one
    less than the list length.
    """

    n: int
    lambdas: tuple[float, ...]

    @property
    def l(self) -> int:
        return len(self.lambdas) - 1

    @property
    def terminal(self) -> float:
        return self.lambdas[-1]


def phase_schedule(n: int) -> PhaseSchedule:
    """Replay the cooling loop exactly, in log space.

    Starting at activity 1 with decrement index i = n, each phase multiplies
    the activity by 2^(-1/(2i)). While i > 2, crossing the threshold
    (n/n!)^(1/(i-1)) clamps the activity to the threshold and decrements i.
    The loop stops once the activity is at or below 1/n!.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    ln_nfact = log_factorial(n)
    floor_log = -ln_nfact
    ln_lambda = 0.0
    i = n
    trajectory = [0.0]
    while ln_lambda > floor_log:
        nxt = ln_lambda - LN2 / (2 * i)
        if i > 2:
            threshold = (math.log(n) - ln_nfact) / (i - 1)
            if nxt < threshold:
                nxt = threshold
                i -= 1
        ln_lambda = nxt
        trajectory.append(ln_lambda)
    return PhaseSchedule(n, tuple(trajectory))


def phase_count_closed_form(n: int) -> int:
    """Exact phase count without replaying the loop.

    Three pieces: phases spent at decrement index n, the summed phases for
    indices n-1 down to 3 (written with the index shifted to 2..n-2), and
    the tail at index 2. Each piece is rounded up separately because a
    partial phase cannot be taken. The first logarithm is evaluated as
    ln(n!/n), the positive orientation; phase counts are positive and the
    loop replay is the ground truth this must match.
    """
    if n < 4:
        raise ValueError(f"closed form requires n >= 4, got {n}")
    lf_n = log_factorial(n)
    lf_nm1 = log_factorial(n - 1)
    first = math.ceil((2 * n / ((n - 1) * LN2)) * (lf_n - math.log(n)))
    middle = sum(math.ceil((2 / (i * LN2)) * lf_nm1) for i in range(2, n - 1))
    last = math.ceil((2 / LN2) * (lf_n + math.log(n)))
    return first + middle + last


@dataclass(frozen=True)
class RelaxationFactors:
    """Divisors applied to sampling parameters, each at least 1.

    Order matches the experiment notation: (samples per phase, resampling
    time in phases, samples for refinement, resampling time for refinement).
    """

    s_phase: float = 1
    t_phase: float = 1
    s_final: float = 1
    t_final: float = 1

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if value < 1:
                raise ValueError(f"relaxation factor {field.name} must be >= 1, got {value}")

    @classmethod
    def from_sequence(cls, values) -> "RelaxationFactors":
        """Factors from four finite numbers in field order; ValueError otherwise."""
        names = [f.name for f in fields(cls)]
        if not isinstance(values, (list, tuple)) or len(values) != len(names):
            raise ValueError(f"relax needs four factors ({', '.join(names)}), got {values!r}")
        for name, value in zip(names, values):
            if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
                raise ValueError(f"relaxation factor {name} must be a finite number, got {value!r}")
        return cls(*values)


@dataclass(frozen=True)
class SamplingParams:
    """All per-run sampling parameters.

    Step counts and sample counts are ints (ceilings of the underlying
    bounds). ``samples_phase`` is the max of the two per-phase bounds, which
    are both retained for diagnostics.
    """

    n: int
    epsilon: float
    l: int
    tau_init: int
    tau_resample_phase: int
    tau_resample_final: int
    samples_phase: int
    samples_final: int
    delta_phase: float
    delta_final: float
    samples_phase_weight_bound: int
    samples_phase_counting_bound: int

    def phase_steps(self) -> int:
        """Steps consumed by one weight-estimation phase."""
        return self.tau_init + self.tau_resample_phase * self.samples_phase

    def final_steps(self) -> int:
        """Steps consumed by the refinement stage."""
        return self.tau_init + self.tau_resample_final * self.samples_final

    def total_steps(self) -> int:
        return self.l * self.phase_steps() + self.final_steps()


def check_epsilon(epsilon: float) -> None:
    """Raise ValueError unless epsilon lies in (0, 1], the error bounds the
    parameter formulas take."""
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon!r}")


def compute_params(n: int, epsilon: float) -> SamplingParams:
    """Unrelaxed sampling parameters for an n x n instance at error bound epsilon."""
    if n < 4:
        raise ValueError(f"parameter formulas require n >= 4, got {n}")
    check_epsilon(epsilon)
    l = phase_count_closed_form(n)
    n2p1 = n * n + 1
    poly = MIXING_CONSTANT * (n**4 + n**2)
    lf = log_factorial(n)

    delta_phase = min(1 / (8 * n2p1), epsilon / (20 * l))
    delta_final = epsilon / 20
    # Checked before the taus: every epsilon at which 1 / delta_phase or
    # 1 / delta_final overflows or divides by 0 fails it.
    counting_denominator = (epsilon * epsilon / 300.0 + 1.0) ** (1.0 / l) - 1.0
    if counting_denominator <= 0:
        raise ValueError(
            f"epsilon {epsilon} is too small for n = {n}: (1 + epsilon^2/300)^(1/{l}) "
            "rounds to 1, so the per-phase counting bound has no finite value"
        )

    tau_init = math.ceil(poly * (lf + math.log(n2p1)))
    tau_resample_phase = math.ceil(poly * math.log(1 / delta_phase))
    tau_resample_final = math.ceil(poly * math.log(1 / delta_final))

    weight_bound = math.ceil(WEIGHT_SAMPLE_CONSTANT * n2p1 * math.log(12 * l * n2p1))
    counting_bound = math.ceil(9.0 / counting_denominator)
    samples_phase = max(weight_bound, counting_bound)
    samples_final = math.ceil((1200 * n * n + 900) / (epsilon * epsilon))

    return SamplingParams(
        n=n,
        epsilon=epsilon,
        l=l,
        tau_init=tau_init,
        tau_resample_phase=tau_resample_phase,
        tau_resample_final=tau_resample_final,
        samples_phase=samples_phase,
        samples_final=samples_final,
        delta_phase=delta_phase,
        delta_final=delta_final,
        samples_phase_weight_bound=weight_bound,
        samples_phase_counting_bound=counting_bound,
    )


def _divide_floor(value: int, factor) -> int:
    """value / factor, floored, never below 1. Exact for rational factors."""
    scaled = Fraction(value) / Fraction(factor)
    return max(1, math.floor(scaled))


def apply_relaxation(params: SamplingParams, relax: RelaxationFactors) -> SamplingParams:
    """Divide sampling parameters by the relaxation factors.

    The phase count and initialization time always stay at their analytic
    values; only sample counts and resampling intervals are divided, each
    floored with a minimum of 1.
    """
    return replace(
        params,
        samples_phase=_divide_floor(params.samples_phase, relax.s_phase),
        tau_resample_phase=_divide_floor(params.tau_resample_phase, relax.t_phase),
        samples_final=_divide_floor(params.samples_final, relax.s_final),
        tau_resample_final=_divide_floor(params.tau_resample_final, relax.t_final),
    )
