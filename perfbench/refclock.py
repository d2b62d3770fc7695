"""Host speed sampled inside the timed operation, for host-normalised times.

On a shared host the same code can run at very different speeds from one
second to the next: ``ChainSampler.walk(500_000)`` took 0.18 to 0.38 s in
back-to-back calls on a 2-vCPU guest. A fixed pure-Python loop timed in the
same thread, a fraction of a second apart, slows down with it: over
30-second spans the ratio of the two varied by 1 to 2 % where each alone
varied by 14 to 18 % (BASELINE.md). A loop timed before and after a long
operation, or in another process on another core, does not track it.

So while an operation runs, ``RefClock`` interrupts it every ``INTERVAL``
seconds (``SIGALRM``) and times one ``reference_loop`` in the handler. The
operation's own time is its wall time minus the time spent in the handler.
Its *reference time* scales that by the nominal loop time over the mean
loop time seen during the operation:

    ref_s = (wall_s - handler_s) * NOMINAL_LOOP_S / mean(loop_s)

that is, the seconds the operation would take on a host where the loop takes
``NOMINAL_LOOP_S``. A change to permlab moves ``ref_s`` just as it moves
``wall_s``; a change in the host's speed mostly does not. The loop never
touches permlab, so nothing a change does to permlab moves the loop.

Operations that run in a process pool are sampled in the workers:
``PoolSamples`` gives ``harness.ProcessPoolExecutor`` an initializer that
starts a clock in each worker, and each worker appends its samples to a file
the parent reads after the batch.
"""

from __future__ import annotations

import functools
import math
import os
import signal
import statistics
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from time import perf_counter

from permlab import harness

INTERVAL = 0.1
# About the loop's time on the 2-vCPU host BASELINE.md describes; it only
# sets the scale of reference seconds.
NOMINAL_LOOP_S = 0.003


def reference_loop() -> int:
    """A fixed mix of what permlab's hot loops do, in three parts.

    List stores and integer arithmetic, as in the chain's index updates;
    ``math.exp`` and float comparisons, as in its acceptance test; products
    of small integers that outgrow a machine word, as in Ryser's row
    products. Different code slows down by different amounts when the host
    is busy; a mix tracks each workload better than any one part alone.
    """
    acc = 0
    table = [0] * 256
    for i in range(5_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 255] = acc
    exp = math.exp
    xs = [i * 0.001 for i in range(64)]
    level = 0.0
    for i in range(3_000):
        x = xs[i & 63] - 0.032
        if x >= 0.0 or level < exp(x):
            acc += 1
        level = level * 0.5 + x
    sums = list(range(3, 23))
    for i in range(1_000):
        sums[i % 20] += 1 if i & 1 else -1
        product = 1
        for value in sums:
            product *= value
        acc ^= product
    return acc


class RefClock:
    """Reference-loop samples taken from ``SIGALRM`` while the clock runs."""

    def __init__(self, sink: int | None = None):
        self.loops: list[float] = []
        self.handler_s = 0.0
        self._sink = sink  # a worker's file descriptor for its samples
        self._previous = None

    def _sample(self, signum, frame) -> None:
        entered = perf_counter()
        reference_loop()
        looped = perf_counter()
        self.loops.append(looped - entered)
        if self._sink is not None:
            os.write(self._sink, f"{looped - entered!r} {perf_counter() - entered!r}\n".encode())
        self.handler_s += perf_counter() - entered

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self) -> "RefClock":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def reference_seconds(own_s: float, loops: list[float]) -> float:
    """``own_s`` wall seconds scaled to a host where the loop takes NOMINAL_LOOP_S."""
    if not loops:  # an operation shorter than INTERVAL: sample once after it
        started = perf_counter()
        reference_loop()
        loops = [perf_counter() - started]
    # The mean, not the median: the operation's time is the integral of the
    # host's slowness over it, which the mean of evenly spaced loops tracks.
    return own_s * NOMINAL_LOOP_S / statistics.fmean(loops)


def _start_worker(sample_dir: str) -> None:
    path = Path(sample_dir) / f"refclock-{os.getpid()}.txt"
    RefClock(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)).start()


def _sampled_pool(sample_dir: Path, *args, **kwargs) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(*args, initializer=_start_worker, initargs=(str(sample_dir),), **kwargs)


class PoolSamples:
    """Give every pool permlab starts a worker clock; collect what they wrote."""

    def __init__(self, sample_dir: Path):
        self.sample_dir = sample_dir

    def __enter__(self) -> "PoolSamples":
        self.sample_dir.mkdir(parents=True, exist_ok=True)
        self._original = harness.ProcessPoolExecutor
        harness.ProcessPoolExecutor = functools.partial(_sampled_pool, self.sample_dir)
        return self

    def __exit__(self, *exc) -> None:
        harness.ProcessPoolExecutor = self._original

    def collect(self) -> tuple[list[float], float]:
        """Every worker's loop times, and the workers' mean handler seconds.

        Removes the sample files, so the next batch starts from none.
        """
        loops: list[float] = []
        handler_s: list[float] = []
        for path in sorted(self.sample_dir.glob("refclock-*.txt")):
            rows = [line.split() for line in path.read_text().splitlines()]
            loops += [float(loop) for loop, _ in rows]
            handler_s.append(sum(float(spent) for _, spent in rows))
            path.unlink()
        return loops, statistics.fmean(handler_s) if handler_s else 0.0
