"""Speed probe: samples how fast this CPU runs while the benchmark measures.

The shared machine the benchmark runs on changes speed by up to about 50%
over seconds to minutes, and each vCPU changes on its own. A probe run on the
other vCPU does not see it; one run in the benchmark's own thread does.
``SpeedProbe`` therefore arms a ``SIGALRM`` timer that, every ``INTERVAL_S``,
runs a fixed pure-Python kernel in the measured thread and times it. The
kernel is run twice per tick and only the second, warm run is timed, so what
the program left in the caches barely moves it.

``factor()`` is ``REFERENCE_S`` over the mean timed kernel of an interval:
above 1 when the machine ran fast, below 1 when it ran slow. Multiplying a
wall time by it gives the time at the reference speed, which is what the
end-to-end metrics report. The kernel draws no random numbers and touches no
program state, so outputs stay byte-identical; it costs about 0.4% of the
measured time.
"""
from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02
KERNEL_STEPS = 300
# Median timed kernel on the machine the baseline was measured on (2-vCPU
# x86_64, Python 3.11.7): the speed that factor() == 1 stands for.
REFERENCE_S = 45e-6


def _kernel(steps: int = KERNEL_STEPS) -> int:
    acc = 0
    table = {}
    for i in range(steps):
        acc = (acc * 31 + i) & 0xFFFF
        table[i & 15] = acc
    return acc


class SpeedProbe:
    """Context manager; ``samples`` holds every timed kernel, in seconds."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        _kernel()
        t0 = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, since: int = 0) -> float:
        """Speed relative to the reference over the samples taken after ``since``.
        An interval shorter than one tick is judged by a sample taken now."""
        if len(self.samples) <= since:
            self._tick(signal.SIGALRM, None)
        return REFERENCE_S / statistics.fmean(self.samples[since:])
