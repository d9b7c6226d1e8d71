"""The host's speed, sampled while a pass runs, to rescale its timings.

The 2-CPU virtual machine this benchmark was tuned on changes speed as a
whole, in phases of a second to minutes: the same call can take twice as
long a minute later, with no CPU time stolen by the hypervisor.  A fixed
calibration kernel (a pure-Python loop and a chain of small numpy calls),
run from a SIGALRM handler every PERIOD_S, measures that speed along the
pass.  A call of `seconds` during which the kernel took K seconds on
average is worth

    seconds * REFERENCE_KERNEL_S * mean(1 / K)

seconds at the reference speed: the speed of a host on which one kernel
run takes REFERENCE_KERNEL_S (about the fastest that machine gets).  The
kernel never changes, so a faster program still shows as fewer reference
seconds.  The handler's own time is kept out of every timing.
"""

from __future__ import annotations

import signal
import sys
import time

PERIOD_S = 0.02  # one kernel run every 20 ms: about 3% of a pass
REFERENCE_KERNEL_S = 0.0005


def kernel() -> None:
    """Interpreter work and small numpy calls, as the program does."""
    s = 0
    for i in range(5000):
        s += i * i % 7
    np = sys.modules["numpy"]
    a = np.arange(200.0)
    for _ in range(60):
        a = np.sqrt(a + 1.0)


class HostClock:
    """Runs the kernel every PERIOD_S once `ready` is set (numpy imported)."""

    def __init__(self) -> None:
        self.ready = False
        self.samples: list[tuple[float, float]] = []  # (start, seconds of the kernel)
        self.spent = 0.0  # seconds inside the handler, to subtract from timings

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        if self.ready:
            kernel()
            self.samples.append((t0, time.perf_counter() - t0))
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Disarm the timer, then run the kernel once more, so that a pass
        shorter than a period still has a sample."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)

    def scale(self, t0: float, t1: float) -> float:
        """Reference seconds per measured second over [t0, t1]: from the
        kernel runs within one period of it, else from the nearest one."""
        ks = [k for t, k in self.samples if t0 - PERIOD_S <= t <= t1 + PERIOD_S]
        if not ks:
            ks = [min(self.samples, key=lambda s: min(abs(s[0] - t0), abs(s[0] - t1)))[1]]
        return REFERENCE_KERNEL_S * sum(1.0 / k for k in ks) / len(ks)
