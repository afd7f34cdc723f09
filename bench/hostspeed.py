"""How fast the host runs Python right now, from a fixed probe loop.

The benchmark's host is a shared machine whose speed changes by up to about
1.9x over seconds to minutes (see README.md).  A raw time then measures the
host as much as the program.  This module times a fixed pure-Python loop, the
probe, while the program runs, and scales the program's time to a reference
host speed: ``seconds * REF_PROBE_S / mean probe time``.  The probe is the
benchmark's own code, so a change to the program moves the scaled time and
leaves the probe alone.

The probe is a plain arithmetic loop that stays in the CPU caches.  In trial
runs, the ratio of a ``tables`` pass time to the mean probe time taken during
it stayed within about 6% across host phases that moved the raw pass time by
27%; probes that miss the caches or run numpy kept it less steady.

:class:`Sampler` runs the probe from a ``SIGALRM`` interval timer every
``interval`` seconds, between the program's bytecodes in its own thread, so
the probes sample the host over the whole time they cover.  Probe time is
subtracted from the time the probes interrupted.
"""

from __future__ import annotations

import signal
from time import perf_counter

# Probe time at the host's fast speed (Intel Xeon VM, 2 vCPUs, Python 3.11):
# the unit of the scaled times.  It only sets their scale.
REF_PROBE_S = 0.0017
PROBE_LOOPS = 25_000


def probe() -> float:
    """Seconds for one run of the fixed probe loop."""
    t0 = perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += (i * 7) % 13
    return perf_counter() - t0


def scale(seconds: float, probes) -> float:
    """``seconds`` at the reference host speed, given probe times taken
    while they ran."""
    return seconds * REF_PROBE_S * len(probes) / sum(probes)


class Sampler:
    """Probes the host every ``interval`` seconds while it is started.

    Each sample is ``(start, probe_s)`` on the ``perf_counter`` clock.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.samples = []
        self._saved = None

    def _on_alarm(self, signum, frame):
        start = perf_counter()
        self.samples.append((start, probe()))

    def start(self) -> None:
        self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def between(self, t0: float, t1: float) -> list:
        """Probe times of the samples that started in ``[t0, t1)``."""
        return [p for start, p in self.samples if t0 <= start < t1]
