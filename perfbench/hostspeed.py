"""Sample the host's speed while a worker measures.

On a shared VM the host slows the vCPU for seconds to minutes at a time, by
up to half, and the process sees it as slower code, not as waiting: CPU time
rises with wall time.  ``HostSpeed`` times a fixed calibration kernel, which
uses no rhlab code, on a real-time timer in the measuring process itself, so
the samples come from the same vCPU as the operations.  A worker scales
each operation's time by ``REFERENCE_S`` over the kernel's mean time during
that operation: the time it would have taken on a host where the kernel
takes ``REFERENCE_S`` (see the README, "Bounds and steadiness").

The kernel runs in a ``SIGALRM`` handler between the program's bytecodes.
``clock()`` stops while it runs, so operation times measured on it leave
the sampling out.
"""

from __future__ import annotations

import mmap
import signal
import statistics
import time

PERIOD_S = 0.1  # time between samples; a sample takes about 2 ms
REFERENCE_S = 0.002  # the kernel's time on the reference host
PAGE = mmap.PAGESIZE
FAULT_BYTES = 1 << 20


def kernel_s() -> float:
    """Time of one run of the calibration kernel: an interpreter loop, then
    a fresh 1 MB mapping touched once per page.  The page faults are there
    because on a slow host the program's allocations and file writes slow
    more than its interpreted code does; with the loop alone the scaled
    times of ``curve-dump`` spread about a third more."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    m = mmap.mmap(-1, FAULT_BYTES)
    for offset in range(0, FAULT_BYTES, PAGE):
        m[offset] = 1
    m.close()
    return time.perf_counter() - t0


class HostSpeed:
    """Samples ``kernel_s`` every ``PERIOD_S`` between ``start()`` and
    ``stop()``; keeps ``[monotonic time, kernel seconds]`` pairs."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.sampling_s = 0.0  # time spent in the handler
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append((time.monotonic(), kernel_s()))
        self.sampling_s += time.perf_counter() - t0

    def clock(self) -> float:
        """``perf_counter`` less the time spent sampling."""
        return time.perf_counter() - self.sampling_s

    def start(self) -> None:
        """Take a first sample now, so even a short pass has one, then one
        every ``PERIOD_S``."""
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def scaled(self, seconds: float, span: tuple[float, float]) -> float:
        """``seconds``, measured over ``span``, at the reference speed."""
        return seconds * REFERENCE_S / self.mean_s(span)

    def mean_s(self, span: tuple[float, float], margin: float = PERIOD_S) -> float:
        """The kernel's mean time over ``span`` (monotonic start and end)
        widened by ``margin`` on each side, or over the three samples
        nearest its middle if fewer fall inside."""
        t0, t1 = span[0] - margin, span[1] + margin
        inside = [d for t, d in self.samples if t0 <= t <= t1]
        if len(inside) < 3:
            mid = (span[0] + span[1]) / 2
            inside = [d for _, d in sorted(self.samples, key=lambda s: abs(s[0] - mid))[:3]]
        return statistics.fmean(inside)
