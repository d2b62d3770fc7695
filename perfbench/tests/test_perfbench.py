"""Tests of the benchmark itself: output checks, span accounting, pinned trials.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import layers  # noqa: E402
import refclock  # noqa: E402
import tracer  # noqa: E402
from permlab import fpras, harness, params  # noqa: E402
from permlab.fpras import Estimate  # noqa: E402
from permlab.matrix import generate_random  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PINS = json.loads((ROOT / "perfbench" / "pins.json").read_text())


def perturbed(hex_value: str) -> str:
    """The float one ulp away from hex_value."""
    value = float.fromhex(hex_value)
    return (value + value * 2.0**-52).hex()


def test_estimate_fingerprint_mismatch_is_a_failure(tmp_path):
    workload = WORKLOADS["estimate-tally"]
    state = workload.setup(PINS["seed"], tmp_path)
    pinned = PINS["fingerprints"]["estimate-tally"]
    hex_value, steps = pinned[0]
    estimate = Estimate(float.fromhex(hex_value), None, (), None, steps)
    assert workload.check(state, [estimate], pinned).failures == {}
    # A value one ulp off still passes every invariant; only the pin catches it.
    off = Estimate(float.fromhex(perturbed(hex_value)), None, (), None, steps)
    assert workload.check(state, [off], None).failures == {}
    checked = workload.check(state, [off], pinned)
    assert list(checked.failures) == [0]
    assert checked.attempted == 1


def test_ryser_fingerprint_mismatch_is_a_failure(tmp_path):
    workload = WORKLOADS["exact-ryser"]
    state = workload.setup(PINS["seed"], tmp_path)
    pinned = PINS["fingerprints"]["exact-ryser"]
    permanents = [int(value) for value in pinned]
    assert workload.check(state, permanents, pinned).failures == {}
    bad_pins = list(pinned)
    bad_pins[3] = str(int(bad_pins[3]) + 2)  # same parity, inside the bound
    assert list(workload.check(state, permanents, bad_pins).failures) == [3]
    # Without pins, an odd error is caught by the parity check.
    permanents[1] += 1
    assert list(workload.check(state, permanents, None).failures) == [1]


def small_estimate():
    m = generate_random(4, 12, seed=42)
    quick = replace(
        params.compute_params(4, 0.5),
        tau_init=300,
        tau_resample_phase=3,
        samples_phase=400,
        tau_resample_final=5,
        samples_final=200,
    )
    return fpras.estimate_permanent(m, 0.5, seed=7, params=quick)


def traced(run, pool_dir=None):
    active = tracer.Tracer(pool_dir=pool_dir)
    uninstall = tracer.install(active)
    try:
        result = run()
    finally:
        uninstall()
    return result, active


def check_span_tree(spans):
    selfs = tracer.self_times(spans)
    for span, own in zip(spans, selfs):
        assert own >= 0, span.name
        assert span.start <= span.end
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end, span.name
    return selfs


def test_self_times_are_nonnegative_and_sum_to_the_root():
    estimate, active = traced(small_estimate)
    spans = active.finish()
    selfs = check_span_tree(spans)
    # In one process, self times plus summed walk time partition the root.
    accounted = sum(own for span, own in zip(spans, selfs) if not span.attrs.get("in_walk"))
    accounted += sum(span.walk_s for span in spans)
    assert accounted == pytest.approx(spans[0].end - spans[0].start, rel=1e-9)
    for index, span in enumerate(spans):
        children = sum(
            c.end - c.start for c in spans if c.parent == index and not c.attrs.get("in_walk")
        )
        assert children + span.walk_s <= span.end - span.start + 1e-9

    values = layers.layer_metrics(spans, active.unconsumed_draws(), 1.0, 1.0)
    assert list(values) == list(layers.PER_LAYER)
    assert values["chain.walk_steps"] == estimate.steps_taken
    assert values["fpras.burnin_steps"] + values["fpras.sample_steps"] == estimate.steps_taken
    assert 0 < values["rng.draws_used_ratio"] <= 1
    assert values["rng.refill_calls"] >= 2


def test_install_restores_the_originals():
    walk = fpras.ChainSampler.walk
    run_phase = fpras.run_phase
    _, active = traced(lambda: None)
    assert fpras.ChainSampler.walk is walk and fpras.run_phase is run_phase
    assert [span.name for span in active.finish()] == ["root"]


def test_trials_at_two_workers_match_the_pins(tmp_path):
    workload = WORKLOADS["trials-burnin"]
    pool_dir = tmp_path / "spans"
    pool_dir.mkdir()

    def batch():
        state = workload.setup(PINS["seed"], tmp_path)
        return state, workload.run(state)

    (state, output), active = traced(batch, pool_dir)
    pinned = PINS["fingerprints"]["trials-burnin"]
    assert workload.fingerprints(output) == pinned
    assert workload.check(state, output, pinned).failures == {}

    spans = active.finish()
    active.merge_children(pool_dir)
    check_span_tree(spans)
    trials = [span for span in spans if span.name == "harness.run_single_trial"]
    assert len(trials) == len(pinned)
    assert {spans[span.parent].name for span in trials} == {"harness.run_trials"}
    assert len({span.pid for span in trials}) == 2
    values = layers.layer_metrics(spans, 0, 1.0, 1.0)
    assert values["chain.walk_steps"] == sum(steps for _, _, steps in pinned)
    assert 0 < values["harness.pool_efficiency"] <= 1


def test_ref_clock_samples_inside_the_operation_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    started = time.perf_counter()
    with refclock.RefClock() as clock:
        while time.perf_counter() - started < 5 * refclock.INTERVAL:
            sum(range(1_000))
    wall = time.perf_counter() - started
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(clock.loops) >= 3
    assert sum(clock.loops) <= clock.handler_s < wall
    # A host twice as slow doubles both the loop and the operation.
    loop = statistics.fmean(clock.loops)
    assert refclock.reference_seconds(2 * wall, [2 * loop]) == pytest.approx(
        refclock.reference_seconds(wall, [loop])
    )
    assert refclock.reference_seconds(wall, []) > 0


def test_pool_samples_come_from_every_worker(tmp_path):
    samples = refclock.PoolSamples(tmp_path / "refclock")
    original = harness.ProcessPoolExecutor
    with samples:
        with harness.ProcessPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(time.sleep, 5 * refclock.INTERVAL) for _ in range(2)]
            for future in futures:
                future.result()
    assert harness.ProcessPoolExecutor is original
    assert len(list(samples.sample_dir.glob("refclock-*.txt"))) == 2
    loops, handler_s = samples.collect()
    assert len(loops) >= 6
    assert sum(loops) / 2 <= handler_s
    assert samples.collect() == ([], 0.0)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-ryser", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_names_every_reported_metric():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
