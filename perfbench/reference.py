"""Host-speed sampling, to take the shared host's drift out of the times.

On a shared host the same code runs up to 1.5-2x slower for seconds to
minutes at a time (see NOTES.md, "Host-speed rescaling").  A ``Sampler`` times
a short fixed computation, the tick, every PERIOD_S seconds of wall time
from a SIGALRM handler, so the ticks sample the speed of the CPU the program
runs on while it runs.  An interval's time is then rescaled to the nominal
host speed:

    (wall time - time spent in ticks) * NOMINAL_TICK_S / mean tick time

The tick is pure Python and allocates no more than a few small dicts, so
the program's state barely touches it.  No thread or process is added.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.1
# Median tick time on the machine the benchmark was written on (2-vCPU Xeon
# VM, 60 repetitions over 20 minutes).  Only a unit: it makes rescaled times
# read as wall seconds at that machine's median speed.
NOMINAL_TICK_S = 0.00137

_A = [((i, 8 - i), complex(i, 1.0)) for i in range(9)]
_B = [((i, j), complex(1.0, j)) for i in range(10) for j in range(10 - i)]


def tick() -> None:
    """A few thousand dict updates with tuple keys and complex values."""
    for _ in range(8):
        out: dict = {}
        for mia, ca in _A:
            for mib, cb in _B:
                mi = (mia[0] + mib[0], mia[1] + mib[1])
                out[mi] = out.get(mi, 0.0) + ca * cb


class Sampler:
    """Records (end time, duration) of a tick every PERIOD_S seconds."""

    def __init__(self):
        self.ticks: list = []

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.monotonic()
        tick()
        t1 = time.monotonic()
        self.ticks.append((t1, t1 - t0))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def between(self, start: float, end: float) -> tuple:
        """(tick seconds, scale) of the time.monotonic() interval [start, end].

        The scale is NOMINAL_TICK_S over the mean tick time in the interval,
        or over all ticks if none ended inside it.
        """
        inside = [d for t, d in self.ticks if start < t <= end]
        speed = inside or [d for _, d in self.ticks]
        scale = NOMINAL_TICK_S * len(speed) / sum(speed) if speed else 1.0
        return sum(inside), scale
