"""Host speed probe, to take the host's changing speed out of timings.

On a shared host the same pure-Python run can take 30% longer from one
minute to the next: neighbours contend for the core and its caches.
While a workload runs, a SIGALRM handler times a fixed piece of
pure-Python work every INTERVAL_S seconds, between the program's own
bytecodes.  A run's wall time multiplied by REFERENCE_S / (mean probe
time during the run) is its time at reference speed, the speed at which
the probe takes REFERENCE_S.  The probe mixes integer arithmetic with
building, sorting and hashing small tuples, as the workloads do; on a
2-core KVM guest it cut the spread of single-run times from about 10-20%
to 1-6%.  It costs about 1.5% of the run, on both sides of any
comparison alike.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.025
REFERENCE_S = 3.5e-4


def probe_once() -> float:
    """Seconds the fixed probe work takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(1500):
        total += i * i % 7
    seen = set()
    for i in range(75):
        seen.add(tuple(sorted((i * 5 % 17 + 1, (i + t) * 3 % 17 + 1) for t in range(8))))
    min(seen)
    return time.perf_counter() - start


class SpeedProbe:
    """Samples the loop time in the background of the main thread."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.samples.append((time.perf_counter(), probe_once()))

    def __enter__(self) -> SpeedProbe:
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_seconds(self, start: float, end: float) -> float:
        """The interval [start, end] in seconds at reference speed."""
        inside = [d for t, d in self.samples if start <= t <= end]
        if not inside:
            inside = [d for t, d in self.samples if t <= end][-1:]
        return (end - start) * REFERENCE_S / statistics.mean(inside)
