"""Measuring how fast the processor runs while the benchmark works.

On a shared machine a process runs at changing speeds as other tenants
load the core it is on.  On the 2-core machine this benchmark was tuned
on, the same work took 1.4 to 1.6 times as long in the slow state as in
the fast one, a state lasted from a fraction of a second to minutes,
and raw times of identical sweeps spread by 20% (quartile distance over
median).  The benchmark therefore times a fixed reference task next to
the work and reports times rescaled to a reference speed; raw times are
printed next to them.  The reference tasks never change with the
library, so a slower library still reads slower.

* Long work in one process (the sweeps): ``SpeedProbe`` interrupts it
  every ``interval`` seconds (SIGALRM) and times ``kernel``, a 0.1 ms
  pure-Python task; ``rescale`` scales each stretch of work by the
  kernel times around it.  Spread of sweep times: 20% raw, 3% rescaled.
* Short child processes (set-up, CLI queries), whose time is mostly
  interpreter start: the parent times an empty interpreter start
  (``interpreter_start``) next to each, with both pinned to one
  processor.  For one query kind, the spread of medians of 10 queries
  fell from 6% raw to 2%; the in-process kernel did not help there.
"""

from __future__ import annotations

import itertools
import signal
import statistics
import subprocess
import sys
import time

_PERMS = tuple(itertools.permutations(range(1, 6)))[:60]

REFERENCE_KERNEL_S = 1.5e-4
REFERENCE_START_S = 0.04


def _inversions(w) -> int:
    return sum(1 for i in range(5) for j in range(i + 1, 5) if w[i] > w[j])


def kernel() -> int:
    """Function calls, tuple indexing and comparisons over 60 small
    permutations.  Its data fit in the first-level cache, so it measures
    the processor and not the memory the library has filled; kernels
    that walked a large table tracked the library's speed far worse."""
    return sum(_inversions(w) for w in _PERMS)


def interpreter_start(env: dict) -> float:
    """Seconds to start and stop an interpreter that does nothing."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return time.perf_counter() - start


def rescale_by_start(seconds: float, start_s: float) -> float:
    """``seconds`` of a child process rescaled by an empty interpreter
    start timed next to it."""
    return seconds * REFERENCE_START_S / start_s


def normalise(seconds: float, kernel_s: float) -> float:
    """``seconds`` of work done while the kernel took ``kernel_s``,
    rescaled to the reference kernel time."""
    return seconds * REFERENCE_KERNEL_S / kernel_s


class SpeedProbe:
    """Kernel timings taken on a timer while a block of work runs.

    ``samples`` holds (end of the sample, kernel seconds) pairs; the
    kernel's own time is excluded from the work by ``rescale``.
    """

    def __init__(self, interval: float = 0.02):
        self.interval = interval
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append((end, end - start))


def rescale(samples: list, start: float, end: float, window: int = 5) -> tuple[float, float]:
    """(raw seconds, rescaled seconds) of the work done from ``start`` to
    ``end`` with ``SpeedProbe`` samples taken in between.  The stretch
    before each sample is rescaled by the median kernel time of the
    ``window`` samples around it, which damps the noise of one 0.1 ms
    timing; work after the last sample uses the last estimate."""
    inside = [(t, k) for t, k in samples if start < t <= end]
    if not inside:
        raise ValueError("no speed samples for this stretch of work")
    half = window // 2
    kernels = [k for _, k in inside]
    raw = norm = 0.0
    previous = start
    k_here = kernels[0]
    for i, (t, k) in enumerate(inside):
        k_here = statistics.median(kernels[max(0, i - half):i + half + 1])
        stretch = t - k - previous
        raw += stretch
        norm += normalise(stretch, k_here)
        previous = t
    tail = end - previous
    return raw + tail, norm + normalise(tail, k_here)
