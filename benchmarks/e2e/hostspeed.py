"""Host speed, sampled while the benchmark runs, to put its times on one scale.

The benchmark shares a host whose processor speed drifts with its
neighbours' load: a fixed pure-Python loop runs at 1.0-1.9x its fastest time,
in stretches of seconds to minutes, and thread CPU time moves with wall time,
so the processor is slowed rather than the process descheduled. A raw time
therefore says as much about the neighbours as about the program.

:class:`HostSpeed` runs a fixed probe, a pure-Python loop that does not use
the code under test, from a SIGALRM handler every INTERVAL_S of wall time,
and times it in thread CPU time (time the probe spends descheduled does not
count). The probe's cost over an interval divided by REFERENCE_S is the
probe's slowdown over it. The program slows a little more than the probe,
so the host's slowdown for the program is the probe's raised to EXPONENT,
and a raw time divided by it is the time at the reference speed: the speed
at which the probe takes REFERENCE_S.

The probe runs in the benchmark process. Work the benchmark waits for in
other processes (pool workers, the serve daemon) runs on the same two
processors, so the probe's slowdown stands for theirs too. Interval timers
are not inherited across ``fork``, so those processes never run the probe.
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import List, Optional

#: wall seconds between probes.
INTERVAL_S = 0.03
#: iterations of the probe loop (about 0.3 ms at the reference speed).
PROBE_LOOPS = 3000
#: the probe's thread CPU time at the reference speed: its fastest
#: sustained cost on the 2-vCPU host the README's numbers come from.
REFERENCE_S = 0.0003
#: the program's time grows as the probe's slowdown to this power: fitted
#: on the raw pass times of 170 runs of the four workloads at probe
#: slowdowns of 1.0-1.8 (1.08-1.19 per workload).
EXPONENT = 1.15
#: samples a slowdown is averaged over at least; a shorter interval is
#: widened around its middle to the nearest this many.
MIN_SAMPLES = 16


def probe() -> int:
    total = 0
    table = {}
    for i in range(PROBE_LOOPS):
        total += i * i % 7
        table[i & 255] = total
    return total


class HostSpeed:
    """Probe samples of one benchmark process, from :meth:`start` to :meth:`stop`."""

    def __init__(self) -> None:
        #: perf_counter reading at the end of each probe.
        self.at: List[float] = []
        #: thread CPU seconds of each probe.
        self.cost: List[float] = []
        self._previous = None

    def start(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _sample(self, signum: Optional[int] = None, frame=None) -> None:
        t0 = time.thread_time()
        probe()
        self.cost.append(time.thread_time() - t0)
        self.at.append(time.perf_counter())

    def slowdown(self, start: float, end: float) -> float:
        """The host's slowdown for the program between two perf_counter
        readings: the mean probe cost over REFERENCE_S, to the EXPONENT."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        if hi - lo < MIN_SAMPLES:
            lo = max(0, (lo + hi) // 2 - MIN_SAMPLES // 2)
            hi = min(len(self.at), lo + MIN_SAMPLES)
            lo = max(0, hi - MIN_SAMPLES)
        return (sum(self.cost[lo:hi]) / (hi - lo) / REFERENCE_S) ** EXPONENT

    def scaled(self, seconds: float, start: float) -> float:
        """``seconds`` that began at ``start``, at the reference speed."""
        return seconds / self.slowdown(start, start + seconds)
