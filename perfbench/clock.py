"""Operation timing corrected for the drifting speed of a shared host.

On a host whose cores are shared with other tenants, pure Python code runs
at a speed that drifts by tens of percent, both from second to second and
from minute to minute; the same Fraction loop measured 12.8 ms to 22.2 ms
per five-second stretch of one minute on a 2-CPU container.  So every timed
operation is divided by the mean duration of a fixed calibration loop,
sampled just before it, just after it, and every SAMPLE_EVERY seconds while
it runs (from a timer signal, whose handler time is left out of the
operation's time), and multiplied by REFERENCE_S, the loop's duration at
the reference speed.  Reported times are seconds at that reference speed.
The loop uses only the standard library, so no change to curvemeet can move
it; the raw seconds go to the run's report file.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

REFERENCE_S = 0.015  # the loop's median over a quiet minute of the reference host
SAMPLE_EVERY = 0.25


def calibration_loop():
    """Seconds taken by a fixed piece of Fraction and big-int arithmetic."""
    start = time.perf_counter()
    s = Fraction(0)
    for k in range(1, 3000):
        s += Fraction(k, 1 << (k % 61 + 3))
        s = Fraction(s.numerator % (1 << 200), s.denominator)
    return time.perf_counter() - start


class Clock:
    def __init__(self, on_sample=None):
        """on_sample(seconds) is told of every sample taken inside an
        operation, so that a tracer can leave it out of its spans."""
        self.on_sample = on_sample
        self.last = calibration_loop()
        self.calibration_s = 0.0  # wall time the loop took inside measure()

    def measure(self, fn):
        """(fn(), reference seconds, raw seconds) for one operation."""
        samples = [self.last]

        def sample(signum, frame):
            samples.append(calibration_loop())
            if self.on_sample is not None:
                self.on_sample(samples[-1])

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            raw = time.perf_counter() - start - sum(samples[1:])
            signal.signal(signal.SIGALRM, previous)
            self.last = calibration_loop()
            self.calibration_s += sum(samples[1:]) + self.last
        samples.append(self.last)
        return result, raw * REFERENCE_S * len(samples) / sum(samples), raw
