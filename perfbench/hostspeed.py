"""A gauge of the host's current speed, sampled while the measured work runs.

On a shared host the same pass can take 1x to 1.9x as long from one minute to
the next, and the speed shifts within a second too.  While a measurement runs,
a timer interrupts the work every ``INTERVAL_S`` seconds and times a fixed
pure-Python kernel.  The work's own time excludes those samples (``clock``),
and is reported scaled to a host on which the kernel takes ``REFERENCE_S``:

    scaled seconds = work seconds * REFERENCE_S / mean kernel seconds

A slower moment slows the kernel and the work alike, so the scaled time keeps
what the program does and loses most of what the host does.  A change to the
program cannot change the kernel, which imports nothing from it and touches
only a few kilobytes.  The kernel needs nothing beyond the standard library,
so it can run while a set-up is still importing numpy.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.05     # one kernel sample per 50 ms of work
KERNEL_STEPS = 12000  # about 4.5 ms on a 2-vCPU Xeon guest
REFERENCE_S = 0.0045  # kernel time at which scaled seconds equal wall seconds


def _kernel() -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(KERNEL_STEPS):
        key = (i * 2654435761) % 1021
        table[key] = table.get(key, 0) + i
        acc += key * 3 // 7
    return acc + max(table.values())


class Gauge:
    """Kernel samples taken on a timer between ``start`` and ``stop``."""

    def __init__(self):
        self.spent = 0.0   # seconds spent in kernel samples, ever
        self.samples = 0
        self._base = (0.0, 0)

    def clock(self) -> float:
        """``time.perf_counter`` less the time spent in kernel samples."""
        return time.perf_counter() - self.spent

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        _kernel()
        self.spent += time.perf_counter() - t0
        self.samples += 1

    def start(self) -> None:
        self._base = (self.spent, self.samples)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> float:
        """Stop sampling; return REFERENCE_S over the mean kernel time since
        ``start``, the factor that scales the work's seconds."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if self.samples == self._base[1]:
            self._sample()  # work shorter than one interval still gets a sample
        spent, samples = self.spent - self._base[0], self.samples - self._base[1]
        return REFERENCE_S * samples / spent


GAUGE = Gauge()
clock = GAUGE.clock
