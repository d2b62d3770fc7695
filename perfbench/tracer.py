"""Span tracer that wraps permlab's layer boundaries from outside the package.

``install`` replaces module attributes and class methods of permlab with
wrappers that record spans (name, start, end, parent) in memory, and returns
a function that puts the originals back. Nothing under ``src/permlab`` knows
about it.

``ChainSampler.walk`` is called millions of times per estimate (once per
spaced sample), so it gets no span of its own: its calls, steps and seconds
are summed onto the span that made the call. The draw refills that happen
inside ``walk`` are recorded as spans marked ``in_walk`` so that their time
is not subtracted twice from the enclosing span's self time.

Trials run in a process pool. The pool is given an initializer that resets
the (inherited or freshly installed) tracer in each worker; the worker then
writes its spans to a directory after every trial, and ``Tracer.merge_children``
folds them back under the parent's ``harness.run_trials`` span.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from time import perf_counter

from permlab import chain, exact, fpras, harness, matrix, params, rng

# Plain functions wrapped with one span per call, by layer module. Each name
# is replaced wherever a permlab module imported it, so calls made inside the
# package see the wrapper too.
SPAN_FUNCTIONS = {
    params: ("compute_params", "apply_relaxation", "phase_schedule"),
    matrix: ("find_perfect_matching", "load_matrix", "generate_random"),
    exact: ("permanent_ryser",),
    fpras: ("estimate_permanent", "run_phase", "final_refinement", "update_weights", "phase_ratio"),
    harness: (
        "generate_suite",
        "configs_from_manifest",
        "run_single_trial",
        "write_results",
        "read_results",
        "aggregate",
        "write_summary_csv",
    ),
}

REFILLS = ("refill_edge", "refill_vert", "refill_unit")


def _stage_attrs(args, kwargs):
    # run_phase and final_refinement share the signature
    # (sampler, tau_init, tau_resample, num_samples).
    _, tau_init, tau_resample, num_samples = args
    return {"tau_init": tau_init, "tau_resample": tau_resample, "num_samples": num_samples}


def _trial_result_attrs(result):
    return {
        "steps_taken": result.steps_taken,
        "failed": result.failed,
        "wall_seconds": result.wall_seconds,
    }


ARG_ATTRS = {
    "fpras.run_phase": _stage_attrs,
    "fpras.final_refinement": _stage_attrs,
    "exact.permanent_ryser": lambda args, kwargs: {"n": args[0].n},
    "harness.run_trials": lambda args, kwargs: {
        "workers": kwargs.get("workers", args[1] if len(args) > 1 else None)
        or harness.default_workers()
    },
}

RESULT_ATTRS = {"harness.run_single_trial": _trial_result_attrs}


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs", "walk_calls", "walk_steps", "walk_s", "pid")

    def __init__(self, name, start, parent, attrs=None):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.attrs = attrs or {}
        self.walk_calls = 0
        self.walk_steps = 0
        self.walk_s = 0.0
        self.pid = os.getpid()

    def to_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_dict(cls, record: dict) -> "Span":
        span = cls(record["name"], record["start"], record["parent"], record["attrs"])
        for slot in ("end", "walk_calls", "walk_steps", "walk_s", "pid"):
            setattr(span, slot, record[slot])
        return span


class Tracer:
    """In-memory span store with a stack of open spans.

    ``spans[0]`` is a root span that is never closed by a wrapper; ``walk``
    calls made with no other span open are summed onto it.
    """

    def __init__(self, pool_dir: Path | None = None):
        # Where pool workers write their spans; None forbids tracing a pool.
        self.pool_dir = pool_dir
        # Set only in a pool worker: flush spans here after every trial.
        self.child_dir: Path | None = None
        self._flushes = 0
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.draw_sources: dict[int, rng.BufferedDraws] = {}
        self.reset()

    def reset(self) -> None:
        # In place: the installed wrappers hold these very containers.
        self.spans[:] = [Span("root", perf_counter(), None)]
        self.stack[:] = [0]
        self.draw_sources.clear()

    def open(self, name: str, attrs=None) -> int:
        index = len(self.spans)
        self.spans.append(Span(name, perf_counter(), self.stack[-1], attrs))
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        self.stack.pop()
        if self.child_dir is not None and len(self.stack) == 1:
            self.flush_child()

    def finish(self) -> list[Span]:
        """Close the root span and return every span recorded so far."""
        self.spans[0].end = perf_counter()
        return self.spans

    def unconsumed_draws(self) -> int:
        """Draws generated by a refill but still unread in a buffer."""
        return sum(
            len(draws.edge_buf) - draws.edge_pos
            + len(draws.vert_buf) - draws.vert_pos
            + len(draws.unit_buf) - draws.unit_pos
            for draws in self.draw_sources.values()
        )

    def flush_child(self) -> None:
        """Write this worker's spans for one trial and start afresh."""
        self.finish()
        self._flushes += 1
        payload = {
            "unconsumed_draws": self.unconsumed_draws(),
            "spans": [span.to_dict() for span in self.spans[1:]],
        }
        path = self.child_dir / f"spans-{os.getpid()}-{self._flushes}.json"
        path.write_text(json.dumps(payload))
        self.reset()

    def merge_children(self, directory: Path) -> int:
        """Append worker spans under the run_trials span that waited for them.

        Returns the workers' unconsumed draw count, which the parent cannot
        see in its own buffers.
        """
        unconsumed = 0
        pools = [i for i, s in enumerate(self.spans) if s.name == "harness.run_trials"]
        for path in sorted(directory.glob("spans-*.json")):
            payload = json.loads(path.read_text())
            unconsumed += payload["unconsumed_draws"]
            records = payload["spans"]
            # Worker indices count from 1 (its own root is dropped).
            offset = len(self.spans) - 1
            for record in records:
                span = Span.from_dict(record)
                if span.parent == 0:
                    span.parent = next(
                        i
                        for i in pools
                        if self.spans[i].start <= span.start and span.end <= self.spans[i].end
                    )
                else:
                    span.parent += offset
                self.spans.append(span)
        return unconsumed


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children in worker processes may overlap one another, so coverage is the
    length of the union of their intervals. Summed ``walk`` time is covered
    too; refills inside ``walk`` are already part of it.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None and not span.attrs.get("in_walk"):
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = span.walk_s
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


# The tracer the pool initializer hands to worker processes. Workers forked
# from a traced parent inherit it with the patches already in place; workers
# started from a fresh interpreter install their own.
_ACTIVE: Tracer | None = None


def _start_worker(child_dir: str) -> None:
    tracer = _ACTIVE
    if tracer is None:
        tracer = Tracer()
        install(tracer)
    tracer.reset()
    tracer.child_dir = Path(child_dir)


def _span_wrapper(tracer: Tracer, fn, name: str):
    arg_attrs = ARG_ATTRS.get(name)
    result_attrs = RESULT_ATTRS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name, arg_attrs(args, kwargs) if arg_attrs else None)
        try:
            result = fn(*args, **kwargs)
            if result_attrs:
                tracer.spans[index].attrs.update(result_attrs(result))
            return result
        finally:
            tracer.close(index)

    return traced


def _generator_wrapper(tracer: Tracer, fn, name: str):
    """Span over the whole iteration of a generator function."""

    arg_attrs = ARG_ATTRS[name]

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name, arg_attrs(args, kwargs))
        try:
            yield from fn(*args, **kwargs)
        finally:
            tracer.close(index)

    return traced


def _walk_wrapper(tracer: Tracer, walk):
    spans = tracer.spans
    stack = tracer.stack

    @functools.wraps(walk)
    def traced(self, steps):
        start = perf_counter()
        walk(self, steps)
        elapsed = perf_counter() - start
        span = spans[stack[-1]]
        span.walk_calls += 1
        span.walk_steps += steps
        span.walk_s += elapsed

    return traced


def _refill_wrapper(tracer: Tracer, refill, name: str, walk_code):
    @functools.wraps(refill)
    def traced(self):
        in_walk = sys._getframe(1).f_code is walk_code
        tracer.draw_sources[id(self)] = self
        index = tracer.open(name, {"draws": self.size, "in_walk": in_walk})
        try:
            return refill(self)
        finally:
            tracer.close(index)

    return traced


def _replace_everywhere(original, replacement) -> list[tuple[object, str, object]]:
    """Rebind every permlab module attribute that is ``original``."""
    undo = []
    modules = [m for key, m in sys.modules.items() if key == "permlab" or key.startswith("permlab.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                undo.append((module, attr, value))
                setattr(module, attr, replacement)
    return undo


def install(tracer: Tracer):
    """Wrap every traced boundary; returns a function that restores them."""
    global _ACTIVE
    undo: list[tuple[object, str, object]] = []
    for module, names in SPAN_FUNCTIONS.items():
        layer = module.__name__.rsplit(".", 1)[1]
        for name in names:
            original = getattr(module, name)
            undo += _replace_everywhere(original, _span_wrapper(tracer, original, f"{layer}.{name}"))
    undo += _replace_everywhere(
        harness.run_trials, _generator_wrapper(tracer, harness.run_trials, "harness.run_trials")
    )

    walk = chain.ChainSampler.walk
    undo.append((chain.ChainSampler, "walk", walk))
    chain.ChainSampler.walk = _walk_wrapper(tracer, walk)
    for name in REFILLS:
        refill = getattr(rng.BufferedDraws, name)
        undo.append((rng.BufferedDraws, name, refill))
        setattr(rng.BufferedDraws, name, _refill_wrapper(tracer, refill, f"rng.{name}", walk.__code__))

    undo.append((harness, "ProcessPoolExecutor", harness.ProcessPoolExecutor))
    harness.ProcessPoolExecutor = functools.partial(_traced_pool, tracer)
    undo.append((sys.modules[__name__], "_ACTIVE", _ACTIVE))
    _ACTIVE = tracer

    def uninstall() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall


def _traced_pool(tracer: Tracer, *args, **kwargs) -> ProcessPoolExecutor:
    if tracer.pool_dir is None:
        raise RuntimeError("this tracer has no pool_dir for worker spans")
    return ProcessPoolExecutor(
        *args, initializer=_start_worker, initargs=(str(tracer.pool_dir),), **kwargs
    )
