"""CPU-speed probe, so that times from a shared machine can be compared.

On the small shared machine this benchmark was built on, the speed a
process gets changes by up to half within a second (other tenants, frequency
changes), and other processes take the CPU away at times.  The benchmark
therefore times work by the CPU time of the process doing it, and scales
that by the speed of the CPU at the time.  A fixed probe, the inner loop of
a sparse product on dicts of exponent tuples with Fraction coefficients,
samples the speed: in bursts right before and after each timed span and,
inside a worker that runs the program in-process, every INTERVAL_S seconds
from a timer signal.  A span's CPU time is scaled by REFERENCE_S over the
mean probe CPU time within MARGIN_S of the span: the result is its length
at the probe speed of the reference machine (2-core Xeon VM, Python 3.11).
Probe time that fell inside a span is subtracted from it first.

Where the measured work is a child process, the benchmark pins itself and
the child to one CPU (`one_cpu`), so the probe samples the CPU the child
runs on.  The probe does not import confalg, so no change to the program
can move it.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import resource
import signal
import statistics
from fractions import Fraction
from time import perf_counter, thread_time

INTERVAL_S = 0.02
BURST = 10
# mean probe CPU time on the reference machine
REFERENCE_S = 0.5e-3
# probe samples this far around a span also count toward its speed
MARGIN_S = 0.1

_A = {tuple((i * j + k) % 3 for k in range(8)): Fraction(i + 1, j + 2)
      for i in range(6) for j in range(2)}
_B = {tuple((i + j * k) % 2 for k in range(8)): Fraction(j + 1, i + 3)
      for i in range(5) for j in range(2)}


def probe() -> dict:
    out = {}
    for _ in range(5):
        out = {}
        for e1, c1 in _A.items():
            for e2, c2 in _B.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
    return out


@contextlib.contextmanager
def one_cpu():
    """Run this process, and every process it starts meanwhile, on one CPU.

    Used where the measured work runs in a child process, so that the probe
    samples the CPU the child runs on.  Where the platform does not allow
    it, the probe still works; it just cannot follow the child.
    """
    try:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(allowed)})
    except (AttributeError, OSError):
        allowed = None
    try:
        yield
    finally:
        if allowed is not None:
            os.sched_setaffinity(0, allowed)


def children_cpu() -> float:
    """CPU time of this process's ended and waited-for children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class SpeedProbe:
    """Probe samples (start time, CPU time) taken in this process.

    As a context manager with `timer`, it also samples from SIGALRM every
    INTERVAL_S seconds.
    """

    def __init__(self, timer: bool = True):
        self.timer = timer
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        t0, c0 = perf_counter(), thread_time()
        probe()
        self.starts.append(t0)
        self.durations.append(thread_time() - c0)

    def burst(self) -> None:
        for _ in range(BURST):
            self._sample()

    def __enter__(self) -> "SpeedProbe":
        if self.timer:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def _window(self, start: float, end: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)

    def scaled(self, start: float, end: float, cpu: float) -> float:
        """`cpu` seconds spent in the span [start, end), at reference speed,
        less the probe time inside the span."""
        lo, hi = self._window(start, end)
        cpu -= sum(self.durations[lo:hi])
        lo, hi = self._window(start - MARGIN_S, end + MARGIN_S)
        near = self.durations[lo:hi] or self.durations
        if not near:
            return cpu
        return cpu * REFERENCE_S / statistics.fmean(near)
