import dataclasses
import math

import pytest

from permlab import RelaxationFactors, compute_params
from permlab.params import (
    LN2,
    apply_relaxation,
    log_factorial,
    phase_count_closed_form,
    phase_schedule,
    state_space_size,
)

# Per-phase sample counts at epsilon = 0.5, pinned regression values.
SAMPLES_PHASE = {4: 259_304, 6: 626_657, 8: 1_134_468, 10: 1_739_520}

# Per-phase step totals at epsilon = 0.5, three significant figures.
PHASE_STEPS = {4: 1.63e11, 6: 2.17e12, 8: 1.32e13, 10: 5.18e13}


def test_schedule_starts_at_zero_and_decreases():
    for n in (2, 3, 4, 7, 12):
        schedule = phase_schedule(n)
        assert schedule.lambdas[0] == 0.0
        assert all(b < a for a, b in zip(schedule.lambdas, schedule.lambdas[1:]))
        # Terminal activity lands at or below 1/n!, overshooting by less
        # than one full cooling step.
        assert schedule.terminal <= -log_factorial(n)
        assert schedule.terminal >= -log_factorial(n) - LN2
        assert schedule.l == len(schedule.lambdas) - 1


def test_schedule_terminal_bound_n4():
    assert phase_schedule(4).terminal <= math.log(1 / 24)


def test_schedule_rejects_tiny_n():
    with pytest.raises(ValueError):
        phase_schedule(1)


def test_closed_form_matches_schedule_replay():
    for n in range(4, 31):
        assert phase_count_closed_form(n) == phase_schedule(n).l


def test_closed_form_rejects_small_n():
    with pytest.raises(ValueError):
        phase_count_closed_form(3)


def test_phase_count_loose_bounds():
    for n in range(5, 31):
        l = phase_count_closed_form(n)
        envelope = n * math.log(n) ** 2
        assert 0.4 * envelope <= l <= 7.22 * envelope


def test_phase_count_vs_unceiled_sum():
    # The ceiling is applied once per decrement index, n-1 times in all, so
    # the exact count sits within n-1 of the un-ceilinged sum.
    for n in range(4, 31):
        lf_n = log_factorial(n)
        lf_nm1 = log_factorial(n - 1)
        raw = (
            (2 * n / ((n - 1) * LN2)) * (lf_n - math.log(n))
            + sum((2 / (i * LN2)) * lf_nm1 for i in range(2, n - 1))
            + (2 / LN2) * (lf_n + math.log(n))
        )
        l = phase_count_closed_form(n)
        assert raw <= l <= raw + (n - 1)


def test_state_space_size_values():
    assert state_space_size(1) == 2
    assert state_space_size(4) == 408
    assert state_space_size(6) == 26_640
    assert state_space_size(8) == 2_620_800
    assert state_space_size(10) == 366_508_800


def test_samples_phase_pinned_values():
    for n, expected in SAMPLES_PHASE.items():
        assert compute_params(n, 0.5).samples_phase == expected


def test_phase_step_totals_three_significant_figures():
    for n, expected in PHASE_STEPS.items():
        actual = compute_params(n, 0.5).phase_steps()
        rounded = float(f"{actual:.3g}")
        assert rounded == expected


def test_domain_errors():
    with pytest.raises(ValueError, match="n must be nonnegative"):
        log_factorial(-1)
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        state_space_size(0)
    with pytest.raises(ValueError):
        compute_params(3, 0.5)
    assert compute_params(10_000, 0.5).n == 10_000
    with pytest.raises(ValueError, match=r"^parameter formulas require n <= 10000, got 10001$"):
        compute_params(10_001, 0.5)
    with pytest.raises(ValueError):
        compute_params(4, 0.0)
    with pytest.raises(ValueError, match=r"^epsilon must be in \(0, 1\], got 1\.5$"):
        compute_params(4, 1.5)
    # (1 + eps^2/300)^(1/l) rounds to 1, so the counting bound would divide by 0.
    with pytest.raises(ValueError, match="epsilon 1e-07 is too small for n = 4"):
        compute_params(4, 1e-7)
    # Here 1 / delta_phase is inf, or (5e-324) delta_phase is 0: the same
    # refusal, before any tau is computed.
    for epsilon in (1e-320, 2.2e-308, 5e-324):
        with pytest.raises(ValueError, match=f"epsilon {epsilon} is too small for n = 4"):
            compute_params(4, epsilon)


def test_delta_phase_upper_bound():
    for n in (4, 9, 20, 40):
        for eps in (0.1, 0.5, 1.0):
            params = compute_params(n, eps)
            assert params.delta_phase <= 1 / (8 * (n * n + 1))
            assert params.delta_final == eps / 20


def test_weight_bound_loose_envelope():
    # The weight-estimation component alone stays within the coarse
    # 4394 n^2 ln(n) envelope.
    for n in range(4, 41):
        params = compute_params(n, 0.5)
        assert params.samples_phase_weight_bound <= 4394 * n * n * math.log(n)


def test_samples_phase_is_max_of_bounds():
    for n in (4, 10, 30):
        params = compute_params(n, 0.5)
        assert params.samples_phase == max(
            params.samples_phase_weight_bound, params.samples_phase_counting_bound
        )


def test_monotonic_in_n():
    previous = None
    for n in range(4, 41):
        params = compute_params(n, 0.5)
        current = (
            params.tau_init,
            params.tau_resample_phase,
            params.tau_resample_final,
            params.samples_phase,
            params.samples_final,
        )
        if previous is not None:
            assert all(c >= p for c, p in zip(current, previous))
        previous = current


def test_samples_final_nonincreasing_in_epsilon():
    values = [compute_params(6, eps).samples_final for eps in (0.1, 0.25, 0.5, 0.75, 1.0)]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_relaxation_identity():
    params = compute_params(4, 0.5)
    assert apply_relaxation(params, RelaxationFactors()) == params


def test_relaxation_divides_and_floors():
    base = compute_params(4, 0.5)
    synthetic = dataclasses.replace(base, samples_phase=1000, tau_resample_phase=500)
    relaxed = apply_relaxation(synthetic, RelaxationFactors(10, 2, 1, 1))
    assert relaxed.samples_phase == 100
    assert relaxed.tau_resample_phase == 250
    assert relaxed.tau_init == synthetic.tau_init
    assert relaxed.l == synthetic.l


def test_relaxation_floor_has_minimum_one():
    for n in (4, 6, 8, 10):
        params = compute_params(n, 0.5)
        relaxed = apply_relaxation(params, RelaxationFactors(1, 33_554_432, 1, 1))
        assert relaxed.tau_resample_phase == 1


def test_relaxation_multiplicative_for_integer_factors():
    params = compute_params(6, 0.5)
    two_step = apply_relaxation(
        apply_relaxation(params, RelaxationFactors(4, 8, 2, 16)),
        RelaxationFactors(2, 4, 8, 2),
    )
    one_step = apply_relaxation(params, RelaxationFactors(8, 32, 16, 32))
    assert two_step == one_step


def test_relaxation_rejects_small_factors():
    with pytest.raises(ValueError):
        RelaxationFactors(0.5, 1, 1, 1)
