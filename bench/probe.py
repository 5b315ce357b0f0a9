"""Speed probe: fixed pure-Python work sampled while each measured step runs.

The benchmark runs on a shared machine whose speed drifts by 20% to 50%
over seconds to minutes, as other tenants come and go.  The probe does the
same fixed work every time (a ball closure and a pointer chase, close in
kind to what the program does) and never calls the program.  Its time says
how fast the machine runs at that moment.

``Meter.run(fn)`` runs one step (an operation or a set-up).  It takes a
probe sample just before and just after the step, and one every
``INTERVAL_S`` while it runs, from a SIGALRM handler that Python calls
between bytecodes.  The step's plain time is its time without the samples.
Its reference time weighs each stretch between two samples by the speed
they show: a stretch of t seconds between samples of p1 and p2 seconds
counts as t * NOMINAL_S / ((p1 + p2) / 2), the time it would take on a
machine where a sample takes NOMINAL_S.  A slower program gives
proportionally more reference seconds; a slower machine gives about the
same.  CPU time is weighed by the samples' CPU time in the same way.

A sample frees every object it allocates.  A handler adds three frames to
the stack of whatever the program is running.
"""

from __future__ import annotations

import resource
import signal
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

NOMINAL_S = 0.004       # about one sample's time on a 2-core 2.1 GHz Xeon VM, Python 3.11
INTERVAL_S = 0.04       # time between samples while a step runs

_RADIUS = 6             # radius of the ball the closure builds per sample
_SLOTS = 1 << 21        # 16 MB of pointers for the chase
_STEPS = 13_000         # pointers the chase follows per sample


def cpu_seconds() -> float:
    """User + system CPU seconds of this process."""
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


class Probe:
    """The probe's fixed data, made once; ``run()`` does one sample's work.

    A sample does two kinds of work the program does: a ball closure that
    builds tuples and a dict (about 40% of the sample's time), and a chase
    through 16 MB of pointers, one cache miss per step (about 60%).  When
    other tenants load the machine, the two slow down by different shares
    (the closure by 1.6 to 1.7 times, the chase by 1.35 to 1.4 times), and
    the program's operations by 1.2 to 1.9 times; this mix tracked the
    program's operations best.
    """

    def __init__(self):
        # A full-period linear congruential step: one cycle through every slot,
        # in an order the hardware prefetcher cannot follow.
        self.chase = array("l", ((1_103_515_245 * i + 12_345) % _SLOTS for i in range(_SLOTS)))
        self.at = 0
        for _ in range(20):                 # warm up
            self.run()

    def run(self) -> int:
        return self.closure() + self.walk()

    @staticmethod
    def closure() -> int:
        """The ball of radius _RADIUS in the free group on two letters, words as tuples."""
        inverse = {1: -1, -1: 1, 2: -2, -2: 2}
        index, frontier = {(): 0}, [()]
        for _ in range(_RADIUS):
            new = []
            for x in frontier:
                for s in (1, -1, 2, -2):
                    h = x[:-1] if x and x[-1] == inverse[s] else x + (s,)
                    if h not in index:
                        index[h] = len(index)
                        new.append(h)
            frontier = new
        return len(index)

    def walk(self) -> int:
        chase, i = self.chase, self.at
        for _ in range(_STEPS):
            i = chase[i]
        self.at = i
        return i


@dataclass
class Timed:
    """One step's outcome and times; ``ref_*`` are reference seconds."""

    result: Any
    error: Exception | None
    wall: float             # plain seconds
    ref_wall: float
    ref_cpu: float


class Meter:
    """Times steps in reference seconds; holds SIGALRM until ``close()``."""

    def __init__(self, probe: Probe):
        self.probe = probe
        self.samples = array("d")            # t0, t1, c0, c1 of each sample
        self.active = False
        self.busy = False
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def _on_alarm(self, signum, frame) -> None:
        if self.active and not self.busy:
            self._sample()

    def _sample(self) -> None:
        self.busy = True
        c0, t0 = cpu_seconds(), perf_counter()
        self.probe.run()
        t1, c1 = perf_counter(), cpu_seconds()
        self.samples.extend((t0, t1, c0, c1))
        self.busy = False

    def run(self, fn: Callable[[], Any]) -> Timed:
        """Run fn between samples; an Exception it raises is returned, not raised."""
        del self.samples[:]
        self._sample()
        result = error = None
        self.active = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            result = fn()
        except Exception as exc:    # RecursionError and MemoryError included
            error = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.active = False
        self._sample()
        s = self.samples
        wall = ref_wall = ref_cpu = 0.0
        for a in range(0, len(s) - 4, 4):
            b = a + 4
            seg_wall, seg_cpu = s[b] - s[a + 1], s[b + 2] - s[a + 3]
            probe_wall = (s[a + 1] - s[a] + s[b + 1] - s[b]) / 2
            probe_cpu = (s[a + 3] - s[a + 2] + s[b + 3] - s[b + 2]) / 2
            wall += seg_wall
            ref_wall += seg_wall * NOMINAL_S / probe_wall
            ref_cpu += seg_cpu * NOMINAL_S / (probe_cpu if probe_cpu > 0 else probe_wall)
        return Timed(result, error, wall, ref_wall, ref_cpu)


def unmetered(fn: Callable[[], Any]) -> Timed:
    """Run fn with no probe; every time in the result is plain seconds."""
    result = error = None
    c0, t0 = cpu_seconds(), perf_counter()
    try:
        result = fn()
    except Exception as exc:        # RecursionError and MemoryError included
        error = exc
    wall, cpu = perf_counter() - t0, cpu_seconds() - c0
    return Timed(result, error, wall, wall, cpu)
