"""How fast the core runs right now, measured by a fixed probe loop.

The benchmark's host is a small virtual machine shared with other tenants.
Its per-core speed drifts by up to a factor of two over tens of seconds,
and the two cores drift independently, so a wall time on its own does not
repeat.  While a ``SpeedProbe`` is active, a profiling timer interrupts the
process every ``PROBE_EVERY_S`` seconds of CPU time and times one fixed
pure-Python loop.  The mean probe time over an interval, divided by the
probe's nominal time, measures how much slower the core ran.  The jobs lose
more to a busy core than the tiny probe loop does: over 30 passes of each
workload, log pass time against log probe ratio had slopes from 1.26 to
1.50, with correlations of 0.97 to 0.995.  So the slowdown of the work is
the probe ratio raised to ``SENSITIVITY``, and a wall time divided by its
slowdown is the time the same work takes on a quiet core of the reference
machine.  The probe costs about 2 % of the CPU time.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

PROBE_EVERY_S = 0.02
PROBE_LOOPS = 5000
# The probe's typical time inside a workload run on a quiet core of the
# reference machine, a 2-vCPU x86-64 virtual machine running CPython 3.11.  It only
# sets the scale of the corrected times.
PROBE_NOMINAL_S = 0.00035
# How much more the jobs slow down than the probe, as an exponent.
SENSITIVITY = 1.3


def probe_loop() -> int:
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return s


class SpeedProbe:
    """Context manager that samples the core's speed while it is active."""

    def __init__(self):
        self.durations: list[float] = []

    def _probe(self, signum, frame):
        t0 = perf_counter()
        probe_loop()
        self.durations.append(perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    def mark(self) -> int:
        """A position to measure the slowdown from."""
        return len(self.durations)

    def slowdown(self, since: int) -> float:
        """How much slower than nominal the work since the mark ran."""
        ratio = statistics.fmean(self.durations[since:]) / PROBE_NOMINAL_S
        return ratio**SENSITIVITY
