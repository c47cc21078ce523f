"""Paced time: a timed stretch of code, corrected for the core's speed.

On a shared virtual machine a core's speed drifts by up to 2x within
seconds, as other tenants load the host, and each core drifts on its own.
Pure-Python jobs of several seconds then vary by 15-40% from one run to
the next, with the program unchanged.  The drift cannot be seen from
another core, nor in process CPU time, which stretches with it.

So the speed is sampled on the same core, in the same process, while the
stretch runs: every ``INTERVAL_S`` of wall time ``SIGALRM`` runs ``probe``
between two bytecodes of the measured code.  A probe runs a fixed
pure-Python loop twice and records how long the second run took.  The loop
builds small tuples, frozensets and dict entries, the kind of work gogtool
does: the time of the benchmark's jobs rose as the probe's to the power
0.8-1.15, against 1.1-1.4 for a loop of integer arithmetic, which
under-read the slowdown.  The first run brings the loop into the caches,
so the probe reads the core's speed and not how much of the cache the
measured code had taken: a cold probe read 10% slower inside a cache-bound
loop than inside a compute-bound one, a warmed probe the same.  A few
probes also run untimed right before and right after the stretch, so a
stretch shorter than the interval has a speed too.  Then

    work_s  = wall time - time spent in probes inside the stretch
    speed   = mean over its probes of (REFERENCE_PROBE_S / probe time)
    paced_s = work_s * speed

``paced_s`` is the time the stretch would have taken on a core that runs
the probe in ``REFERENCE_PROBE_S`` throughout.  The reference is a fixed
unit, about the fastest the probe ran on the machine the benchmark was
defined on (a 2-core Xeon virtual machine, CPython 3.11); the fastest probe
of each run is kept as ``best_probe_s``, and it moves by several percent
from run to run, so it would be a poor unit.  The program's own work is
not rescaled: a change that makes it do more work raises ``paced_s`` as it
raises wall time.  The probes take about 2% of the wall time (median
over jobs; more while the core is slow), which ``work_s`` leaves out;
the raw wall times are kept next to the paced ones.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

INTERVAL_S = 0.005
REFERENCE_PROBE_S = 20e-6
BRACKET = 4  # untimed probes before and after each stretch


def _loop() -> dict:
    d = {}
    for i in range(60):
        d[(i, i & 3)] = frozenset((i, i + 1, i & 7))
        d.get((i - 1, 0))
    return d


def probe() -> tuple[float, float]:
    """One probe: (time of the warmed loop, time of the whole probe)."""
    start = time.perf_counter()
    _loop()
    warm = time.perf_counter()
    _loop()
    end = time.perf_counter()
    return end - warm, end - start


class Pacer:
    """Times stretches of code with the speed probes running.

    ``begin`` and ``end`` bracket one stretch; ``end`` returns its wall
    time, work time and mean probe rate.  ``best`` is the fastest probe seen
    so far.
    """

    def __init__(self) -> None:
        self.best = math.inf
        self._samples: list[tuple[float, float]] = []
        self._start = 0.0

    def _tick(self, signum, frame) -> None:
        self._samples.append(probe())

    def begin(self) -> None:
        self._samples = [probe() for _ in range(BRACKET)]
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()

    def end(self) -> dict:
        wall = time.perf_counter() - self._start
        inside = self._samples[BRACKET:]
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        samples = [t for t, _ in self._samples + [probe() for _ in range(BRACKET)]]
        self.best = min(self.best, *samples)
        return {
            "wall_s": wall,
            "work_s": wall - sum(spent for _, spent in inside),
            "rate": statistics.fmean(1 / t for t in samples),
            "probes": len(samples),
        }


def paced(stretch: dict) -> float:
    """The stretch's work time at the reference speed."""
    return stretch["work_s"] * stretch["rate"] * REFERENCE_PROBE_S
