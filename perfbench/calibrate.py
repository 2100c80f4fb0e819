"""Machine-speed samples taken on the benchmark's own thread.

The benchmark runs on shared machines whose speed drifts: on a shared 2-vCPU
virtual machine the same pure-Python loop was seen to take from 1x to 1.9x
its fastest time, in stretches lasting seconds to minutes, and two
interpreters running side by side drifted independently.  Raw wall times of
one pass then spread by more than 25% between identical runs.

To separate the program's speed from the machine's, ``SpeedSampler`` runs a
fixed exact-arithmetic kernel (``kernel``) every ``INTERVAL_S`` from a
``SIGALRM`` handler on the measured thread itself, so each sample sees the
speed the workload saw at that moment.  A window of the workload is then
reported in reference seconds:

    (window - kernel time inside it) * mean(REFERENCE_KERNEL_S / kernel time)

with the mean over the samples near the window.  Samples are evenly spaced
in time, so the mean of the speed ratios is the window's average speed, and
the result is the time the window would take on a machine where one kernel
call takes exactly ``REFERENCE_KERNEL_S``.  The kernel is Fraction arithmetic,
the same mix of big-integer and object work as the program's own.  The
handler touches no program state and costs about 2% of the run, which is
subtracted.  Raw times are reported beside the normalized ones.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter
from typing import List, Tuple

INTERVAL_S = 0.05
REFERENCE_KERNEL_S = 0.001
MIN_SAMPLES = 3


def kernel() -> Fraction:
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i % 97 + 1)
    return total


class SpeedSampler:
    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []  # (start, duration), perf_counter seconds

    def _sample(self, *_signal_args) -> None:
        t0 = perf_counter()
        kernel()
        self.samples.append((t0, perf_counter() - t0))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def burst(self, count: int) -> None:
        """Take samples back to back, e.g. right after a window too short for the timer."""
        for _ in range(count):
            self._sample()

    def overhead(self, t0: float, t1: float) -> float:
        """Kernel time spent inside [t0, t1)."""
        return sum(d for s, d in self.samples if t0 <= s < t1)

    def factor(self, t0: float, t1: float, margin: float = 0.0) -> float:
        """Mean of REFERENCE_KERNEL_S / kernel time over the samples in
        [t0 - margin, t1 + margin], or over the MIN_SAMPLES samples nearest
        the window when it holds fewer."""
        near = [d for s, d in self.samples if t0 - margin <= s <= t1 + margin]
        if len(near) < MIN_SAMPLES:
            mid = (t0 + t1) / 2
            near = [d for _, d in sorted(self.samples, key=lambda sample: abs(sample[0] - mid))[:MIN_SAMPLES]]
        return REFERENCE_KERNEL_S * sum(1 / d for d in near) / len(near)

    def normalize(self, t0: float, t1: float, margin: float = 0.0) -> float:
        """The window [t0, t1) without kernel time, in reference seconds."""
        return (t1 - t0 - self.overhead(t0, t1)) * self.factor(t0, t1, margin)
