"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Criterion 6 is minutes-scale; everything else is
seconds.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from permlab import (
    Matrix,
    RelaxationFactors,
    compute_params,
    crossover,
    estimate_permanent,
    generate_random,
    parse_matrix,
    permanent_naive,
    permanent_ryser,
    total_steps,
)
from permlab.chain import (
    ChainSampler,
    WeightTable,
    build_transition_matrix,
    exact_stationary,
    log_weight,
    state_key,
)
from permlab.harness import relative_error, within_multiplicative_bound
from permlab.matrix import Matching, find_perfect_matching
from permlab.params import phase_count_closed_form, phase_schedule, state_space_size
from permlab.rng import BufferedDraws

FIG = parse_matrix("3\n101\n110\n101\n")


@contextmanager
def criterion(number: int, description: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\ncriterion {number}: FAIL - {description}")
        raise
    print(
        f"\ncriterion {number}: PASS - {description} "
        f"({time.perf_counter() - started:.2f}s)"
    )


def weight_settings(n: int):
    """Uniform, initial (w = n at activity 1), and random weights at 0.1."""
    gen = np.random.Generator(np.random.PCG64(n * 1000 + 17))
    random_w = tuple(float(x) for x in gen.uniform(-0.7, 0.7, size=n * n))
    return [
        WeightTable(n, 0.0, (0.0,) * (n * n), (1,) * (n * n)),
        WeightTable(n, 0.0, (math.log(n),) * (n * n), (1,) * (n * n)),
        WeightTable(n, math.log(0.1), random_w, (1,) * (n * n)),
    ]


def test_criterion_1_exact_oracle_equivalence():
    with criterion(1, "Ryser equals the permutation-sum oracle"):
        started = time.perf_counter()
        assert permanent_ryser(FIG) == 2
        assert permanent_naive(FIG) == 2
        rng = random.Random(2_024)
        for trial in range(500):
            n = 1 + trial % 8
            ones = rng.randint(0, n * n)
            m = generate_random(n, ones, seed=rng.getrandbits(32))
            assert permanent_ryser(m) == permanent_naive(m)
        assert time.perf_counter() - started < 10.0


def test_criterion_2_state_space_and_sample_table():
    with criterion(2, "state-space sizes, per-phase samples, per-phase steps"):
        started = time.perf_counter()
        expected_sizes = {4: 408, 6: 26_640, 8: 2_620_800, 10: 366_508_800}
        expected_samples = {4: 259_304, 6: 626_657, 8: 1_134_468, 10: 1_739_520}
        expected_phase_steps = {4: 1.63e11, 6: 2.17e12, 8: 1.32e13, 10: 5.18e13}
        for n in (4, 6, 8, 10):
            assert state_space_size(n) == expected_sizes[n]
            params = compute_params(n, 0.5)
            assert params.samples_phase == expected_samples[n]
            assert float(f"{params.phase_steps():.3g}") == expected_phase_steps[n]
        assert time.perf_counter() - started < 1.0


def test_criterion_3_step_count_totals():
    with criterion(3, "step-count totals at n=4 and n=68, crossover at 68"):
        started = time.perf_counter()
        assert total_steps(4, 0.5) == 3_932_754_162_118
        assert total_steps(68, 0.5) == 13_285_251_197_747_730_326_655
        assert crossover(0.5) == 68
        assert time.perf_counter() - started < 1.0


@pytest.mark.xfail(
    strict=True,
    reason="the printed n=100 reference integer dropped a leading digit; the "
    "formulas that match n=4 and n=68 exactly give 264,022,847,298,779,435,"
    "144,166, which also matches the companion 2.64e23 approximation and the "
    "8,366,379-year projection",
)
def test_criterion_3_n100_total_as_printed():
    try:
        assert total_steps(100, 0.5) == 64_022_847_298_779_435_144_166
    except AssertionError:
        print(
            "\ncriterion 3 (n=100 printed figure): FAIL as stated - computed "
            f"{total_steps(100, 0.5)}, the printed value is one leading digit short"
        )
        raise


def test_criterion_3_n100_total_self_consistent_value():
    with criterion(3, "n=100 total matches the self-consistent corrected figure"):
        assert total_steps(100, 0.5) == 264_022_847_298_779_435_144_166


def test_criterion_4_phase_count_consistency():
    with criterion(4, "closed-form phase count equals loop replay, loose bounds"):
        started = time.perf_counter()
        for n in range(4, 31):
            assert phase_count_closed_form(n) == phase_schedule(n).l
        for n in range(5, 31):
            l = phase_count_closed_form(n)
            envelope = n * math.log(n) ** 2
            assert 0.4 * envelope <= l <= 7.22 * envelope
        assert time.perf_counter() - started < 1.0


def test_criterion_5_chain_correctness():
    with criterion(5, "stochasticity, detailed balance, empirical occupation"):
        started = time.perf_counter()
        for n in (2, 3):
            for setting_index, wt in enumerate(weight_settings(n)):
                states, matrix = build_transition_matrix(n, wt)
                assert np.abs(matrix.sum(axis=1) - 1).max() < 1e-12
                weights = np.array([math.exp(log_weight(s, wt)) for s in states])
                flux = weights[:, None] * matrix
                asymmetry = np.abs(flux - flux.T)
                scale = np.maximum(np.abs(flux), np.abs(flux.T))
                mask = scale > 0
                assert (asymmetry[mask] / scale[mask]).max() < 1e-9

                _, pi = exact_stationary(n, wt)
                index = {state_key(s): i for i, s in enumerate(states)}
                start = Matching(n, frozenset((i, i) for i in range(n)))
                sampler = ChainSampler(
                    wt, start, BufferedDraws(9_000 + 10 * n + setting_index, n)
                )
                counts = np.zeros(len(states))
                row_to_col = sampler.row_to_col
                for _ in range(1_000_000):
                    sampler.walk(1)
                    counts[index[tuple(row_to_col)]] += 1
                tv = 0.5 * np.abs(counts / counts.sum() - pi).sum()
                assert tv < 0.01, f"n={n} setting={setting_index}: TV {tv:.4f}"
        assert time.perf_counter() - started < 120.0


@pytest.mark.slow
def test_criterion_6_end_to_end_accuracy():
    with criterion(6, "10 relaxed n=4 runs: no failures, in bound, mean error"):
        started = time.perf_counter()
        relax = RelaxationFactors(1, 262_144, 16, 64)
        matrices = []
        seed = 0
        while len(matrices) < 10:
            m = generate_random(4, 12, seed=seed)
            if find_perfect_matching(m) is not None:
                matrices.append(m)
            seed += 1
        errors = []
        for i, m in enumerate(matrices):
            exact = permanent_ryser(m)
            estimate = estimate_permanent(m, 0.5, relax, seed=1_000 + i)
            assert not estimate.failed, f"matrix {i} failed: {estimate.failure_reason}"
            assert within_multiplicative_bound(estimate.value, exact, 0.5), (
                f"matrix {i}: estimate {estimate.value} vs exact {exact}"
            )
            errors.append(relative_error(estimate.value, exact))
        mean_error = sum(errors) / len(errors)
        print(f"\nmean relative error over 10 runs: {mean_error:.4f}")
        assert mean_error <= 0.15
        assert time.perf_counter() - started < 1_800.0


def test_criterion_7_failure_semantics():
    with criterion(7, "single-sample phases fail with a diagnostic; zero matrix"):
        started = time.perf_counter()
        sparse = Matrix.from_rows(
            [[int(i == j) for j in range(4)] for i in range(4)]
        )
        estimate = estimate_permanent(
            sparse, 0.5, RelaxationFactors(300_000, 1, 1, 1), seed=3
        )
        assert estimate.value == -1.0
        assert estimate.failed_phase is not None
        assert estimate.failure_reason
        assert time.perf_counter() - started < 60.0

        zero_start = time.perf_counter()
        zero = Matrix.from_rows([[0] * 4] * 4)
        zero_estimate = estimate_permanent(zero, 0.5, seed=3)
        assert zero_estimate.value == 0.0
        assert zero_estimate.steps_taken == 0
        assert time.perf_counter() - zero_start < 1.0


def test_criterion_8_determinism():
    with criterion(8, "identical inputs and seed give a bit-identical estimate"):
        m = generate_random(4, 12, seed=42)
        relax = RelaxationFactors(1_000, 262_144, 80, 640)
        first = estimate_permanent(m, 0.5, relax, seed=424_242)
        second = estimate_permanent(m, 0.5, relax, seed=424_242)
        assert first == second
        assert not first.failed
        # Golden pin: catches drift in the PCG64 streams and in refactors of
        # the chain or estimator that a same-process comparison cannot see.
        assert (first.value.hex(), first.steps_taken) == ("0x1.1650e0b39762ep-3", 14275612)
