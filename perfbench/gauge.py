"""Host-speed gauge: a fixed exact-arithmetic kernel, timed between segments.

On a shared virtual machine the same code can run at anything from 1x to
2x its best time, changing within seconds, and each vCPU on its own: a
gauge running on the other vCPU does not follow the one the workload runs
on.  So the gauge runs in the workload's own thread, interleaved with it:
``SpeedClock`` samples the kernel at every lap and, through a SIGALRM
timer, every PERIOD_S seconds in between, and rescales each interval
between two samples to a reference speed: ``t`` seconds measured while
the kernel took ``g`` seconds (the mean of the samples at both ends) count
as ``t * REF_S / g``.  The time the samples take is left out.

The kernel is the kind of work qlab does (rational multiply-adds on a
truncated q-series with growing numerators and denominators), but it uses
only the standard library, so a change to qlab cannot change it.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import nullcontext
from fractions import Fraction

# The kernel's time at the reference speed: roughly its time on a
# 2-vCPU Xeon (2.1 GHz) KVM guest with CPython 3.11 in its fast phases;
# in its slow phases the kernel took up to twice as long.
REF_S = 0.0027

REPEATS = 3  # a sample is the median of this many kernel runs
PERIOD_S = 0.1  # the most time between two samples inside a lap


def _kernel(order: int = 40, factors: int = 10) -> list:
    """Multiply by (1 - a q^k) and divide by (1 - b q^k) for k = 1..factors."""
    a, b = Fraction(3, 7), Fraction(-5, 11)
    c = [Fraction(1)] + [Fraction(0)] * order
    for k in range(1, factors + 1):
        for i in range(order, k - 1, -1):
            c[i] -= a * c[i - k]
        for i in range(k, order + 1):
            c[i] += b * c[i - k]
    return c


def sample() -> float:
    """Seconds the kernel takes now: the median of REPEATS runs."""
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def at_ref_speed(seconds: float, gauge_s: float) -> float:
    """Seconds measured while the kernel took gauge_s, at the reference speed."""
    return seconds * REF_S / gauge_s


class SpeedClock:
    """Time of one thread's work, raw and at the reference speed.

    ``start`` samples the gauge and arms the timer; each ``lap`` returns
    the (raw, at reference speed) seconds since the previous lap or the
    start; ``stop`` disarms the timer.  ``guard`` is a context manager
    put around every sample, so that a tracer can leave it out of its
    spans.  Only the main thread can own a SpeedClock, since the timer
    signal is handled there.
    """

    def __init__(self, guard=nullcontext):
        self.samples: list = []
        self._guard = guard
        self._busy = False
        self._gauge = self._mark = self._raw = self._at_ref = 0.0
        self._lap_raw = self._lap_at_ref = 0.0  # the totals at the last lap

    def _sample(self) -> float:
        with self._guard():
            g = sample()
        self.samples.append(g)
        return g

    def _advance(self) -> None:
        """Close the interval since the last sample and take a new one."""
        self._busy = True  # first, so that a timer signal arriving later is dropped
        interval = time.perf_counter() - self._mark
        g = self._sample()
        self._raw += interval
        self._at_ref += at_ref_speed(interval, (self._gauge + g) / 2)
        self._gauge = g
        self._mark = time.perf_counter()
        self._busy = False

    def _on_timer(self, signum, frame) -> None:
        if not self._busy:
            self._advance()

    def start(self) -> None:
        self._gauge = self._sample()
        self._mark = time.perf_counter()
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def lap(self) -> tuple:
        self._advance()
        raw, at_ref = self._raw - self._lap_raw, self._at_ref - self._lap_at_ref
        self._lap_raw, self._lap_at_ref = self._raw, self._at_ref
        return raw, at_ref

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
