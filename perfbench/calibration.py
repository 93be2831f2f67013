"""Host-speed sampling, so timings read at the host's quiet speed.

On a shared host the same code runs up to ~1.9x slower for stretches of
a few milliseconds to minutes while co-tenants load the cores this
process shares (CPU time slows as much as wall time, so it is contention,
not waiting).  ``SpeedProbe`` samples the speed while the timed calls
run: a timer signal every ``INTERVAL_S`` runs, in the calling thread and
so on the same core, a fixed reference kernel that calls nothing in
``cviopt``, and records how long it took.  ``normalise`` scales a call's
time, less the time the samples took, by the mean speed its samples saw
(``REFERENCE_S`` over the kernel time).  A slower host then reads as the
same call time, while a faster program shows in full.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL_S = 0.025  # timer period; each sample takes ~0.4-0.8 ms
#: the warm kernel's time on an uncontended core of the host the benchmark
#: was built on (Intel Xeon, 2.1 GHz, Python 3.11, numpy 2.4); only a
#: scale, so that normalised times read in seconds
REFERENCE_S = 0.000200

_ROWS = np.random.default_rng(12345).random((40, 3))
_KEYS = list(range(300))


def _kernel() -> None:
    # an interpreted dict loop (as in the ARI and tabu code), then small
    # numpy calls (as in one ``peek``); the working set stays in cache
    table: dict = {}
    for key in _KEYS:
        table[key % 7] = table.get(key % 7, 0) + 1
    for i in range(40):
        d = _ROWS - _ROWS[i]
        np.einsum("ij,ij->i", d, d).min()


class SpeedProbe:
    """Samples the kernel's time from a timer signal until ``stop()``.

    ``samples`` holds (handler entry, handler exit, kernel seconds); the
    kernel runs twice per sample and the second, warm run is timed, so
    the sample measures the core, not the caches the program left.
    """

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        entry = time.perf_counter()
        _kernel()
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.samples.append((entry, t1, t1 - t0))
        self._busy = False

    def start(self) -> "SpeedProbe":
        for _ in range(10):
            _kernel()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def normalise(self, start: float, end: float, fallback=(0.0, 0.0)) -> float:
        """The seconds from ``start`` to ``end`` at the host's quiet speed.

        Without a sample in the interval, the samples from ``fallback``
        (an interval around it) give the speed.
        """
        inside = self._between(start, end)
        busy = sum(exit_ - entry for entry, exit_, _ in inside)
        speeds = inside or self._between(*fallback) or [(0.0, 0.0, REFERENCE_S)]
        speed = sum(REFERENCE_S / kernel_s for _, _, kernel_s in speeds) / len(speeds)
        return (end - start - busy) * speed

    def _between(self, start: float, end: float) -> list:
        entries = [s[0] for s in self.samples]
        return self.samples[bisect.bisect_left(entries, start):bisect.bisect_left(entries, end)]
