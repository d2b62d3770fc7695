"""Per-layer metrics computed from a traced run's spans.

The layers are permlab's modules. ``feasibility`` (microsecond integer
arithmetic) and ``cli`` (an argparse shell over ``harness``) are not layers.
A layer that a workload does not exercise reads 0 on it.

Which end-to-end metric each layer metric should move, and where (the raw
``wall_s`` and ``steps_per_s`` move with them; see run.py):

* ``rng.*``: ``steps_per_ref_s`` on both estimator workloads (about 4 % of
  time).
* ``chain.*``: ``wall_ref_s`` on trials-burnin (about 90 %) and about half
  of it on estimate-tally.
* ``fpras.run_phase.self_s`` (run_phase minus the walk time inside it, the
  tally overhead): ``wall_ref_s`` on estimate-tally; near 0 on
  trials-burnin.
* ``params.compute_s``, ``matrix.find_perfect_matching_s``: ``setup_s``;
  ``matrix.load_matrix_s`` is part of ``wall_ref_s`` on trials-burnin.
* ``exact.*``: ``steps_per_ref_s`` (subsets) on exact-ryser and nothing
  else.
* ``harness.*``: ``wall_ref_s`` on trials-burnin; ``generate_suite_s`` is
  part of its ``setup_s``.

Per-layer times are seconds as measured, not reference seconds: the traced
run samples no reference loop, so that no span holds the sampler's time.
``trace.overhead_s`` is one traced minus one untraced operation in raw
seconds, so on a host whose speed drifts it carries that drift and can be
negative.
"""

from __future__ import annotations

from tracer import Span, self_times

# Name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "rng.refill_calls": "count",
    "rng.refill_s": "s",
    "rng.draws_used_ratio": "ratio",
    "chain.walk_calls": "count",
    "chain.walk_steps": "count",
    "chain.walk_s": "s",
    "chain.walk_steps_per_s": "1/s",
    "chain.steps_per_walk_call": "count",
    "fpras.run_phase_s": "s",
    "fpras.run_phase.self_s": "s",
    "fpras.samples_tallied": "count",
    "fpras.final_refinement_s": "s",
    "fpras.final_refinement.self_s": "s",
    "fpras.update_weights_s": "s",
    "fpras.phase_ratio_s": "s",
    "fpras.burnin_steps": "count",
    "fpras.sample_steps": "count",
    "params.compute_s": "s",
    "matrix.find_perfect_matching_s": "s",
    "matrix.load_matrix_s": "s",
    "exact.permanent_ryser_s.n18": "s",
    "exact.permanent_ryser_s.n19": "s",
    "exact.permanent_ryser_s.n20": "s",
    "exact.subsets": "count",
    "exact.subsets_per_s": "1/s",
    "harness.generate_suite_s": "s",
    "harness.run_trials_s": "s",
    "harness.trial_wall_sum_s": "s",
    "harness.pool_efficiency": "ratio",
    "harness.io_s": "s",
    "harness.failed_trials": "count",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}

HARNESS_IO = ("harness.write_results", "harness.read_results", "harness.aggregate", "harness.write_summary_csv")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[Span], unconsumed_draws: int, untraced_wall_s: float, traced_wall_s: float) -> dict:
    """Every PER_LAYER value from one traced operation (and its set-up)."""
    selfs = self_times(spans)
    durations: dict[str, float] = {}
    self_by_name: dict[str, float] = {}
    for span, own in zip(spans, selfs):
        durations[span.name] = durations.get(span.name, 0.0) + span.end - span.start
        self_by_name[span.name] = self_by_name.get(span.name, 0.0) + own

    def named(prefix: str) -> list[Span]:
        return [span for span in spans if span.name.startswith(prefix)]

    refills = named("rng.refill_")
    generated = sum(span.attrs["draws"] for span in refills)
    walk_calls = sum(span.walk_calls for span in spans)
    walk_steps = sum(span.walk_steps for span in spans)
    walk_s = sum((span.walk_s for span in spans), 0.0)
    stages = named("fpras.run_phase") + named("fpras.final_refinement")
    ryser = named("exact.permanent_ryser")
    ryser_s = sum((span.end - span.start for span in ryser), 0.0)
    subsets = sum((1 << span.attrs["n"]) - 1 for span in ryser)
    trials = named("harness.run_single_trial")
    trial_wall = sum((span.end - span.start for span in trials), 0.0)
    pools = named("harness.run_trials")
    pool_capacity = sum(span.attrs["workers"] * (span.end - span.start) for span in pools)
    overhead = traced_wall_s - untraced_wall_s

    values = {
        "rng.refill_calls": len(refills),
        "rng.refill_s": sum((span.end - span.start for span in refills), 0.0),
        "rng.draws_used_ratio": _ratio(generated - unconsumed_draws, generated),
        "chain.walk_calls": walk_calls,
        "chain.walk_steps": walk_steps,
        "chain.walk_s": walk_s,
        "chain.walk_steps_per_s": _ratio(walk_steps, walk_s),
        "chain.steps_per_walk_call": _ratio(walk_steps, walk_calls),
        "fpras.run_phase_s": durations.get("fpras.run_phase", 0.0),
        "fpras.run_phase.self_s": self_by_name.get("fpras.run_phase", 0.0),
        "fpras.samples_tallied": sum(span.attrs["num_samples"] for span in stages),
        "fpras.final_refinement_s": durations.get("fpras.final_refinement", 0.0),
        "fpras.final_refinement.self_s": self_by_name.get("fpras.final_refinement", 0.0),
        "fpras.update_weights_s": durations.get("fpras.update_weights", 0.0),
        "fpras.phase_ratio_s": durations.get("fpras.phase_ratio", 0.0),
        "fpras.burnin_steps": sum(span.attrs["tau_init"] for span in stages),
        "fpras.sample_steps": sum(span.attrs["tau_resample"] * span.attrs["num_samples"] for span in stages),
        "params.compute_s": sum((span.end - span.start for span in named("params.")), 0.0),
        "matrix.find_perfect_matching_s": durations.get("matrix.find_perfect_matching", 0.0),
        "matrix.load_matrix_s": durations.get("matrix.load_matrix", 0.0),
        "exact.subsets": subsets,
        "exact.subsets_per_s": _ratio(subsets, ryser_s),
        "harness.generate_suite_s": durations.get("harness.generate_suite", 0.0),
        "harness.run_trials_s": durations.get("harness.run_trials", 0.0),
        "harness.trial_wall_sum_s": trial_wall,
        "harness.pool_efficiency": _ratio(trial_wall, pool_capacity),
        "harness.io_s": sum(durations.get(name, 0.0) for name in HARNESS_IO),
        "harness.failed_trials": sum(1 for span in trials if span.attrs["failed"]),
        "trace.overhead_s": overhead,
        "trace.overhead_share": _ratio(overhead, untraced_wall_s),
    }
    for n in (18, 19, 20):
        values[f"exact.permanent_ryser_s.n{n}"] = sum(
            (span.end - span.start for span in ryser if span.attrs["n"] == n), 0.0
        )
    return {name: values[name] for name in PER_LAYER}
