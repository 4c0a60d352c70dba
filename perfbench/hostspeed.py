"""The shared host's current speed, from a fixed reference computation.

Other tenants of the host slow every process on it, for minutes at a time.
On the 2-vCPU Xeon VM this benchmark was written on, a training that took
2.3 s read 3.5-3.7 s in every sample of some 40 s runs, and both vCPUs slowed
together, so no statistic over one run's samples removes it. `timed` therefore
times `kernel()`, numpy code of the benchmark's own that calls no planefinder
code, before and after each timed operation and every SAMPLE_S seconds during
it, and divides the operation's wall time by the kernel's mean slowdown
against REF_S. The result is the time the operation would take with the host
at the speed REF_S records. The sampler's own time is taken out of the
operation's wall time; it still lands in whichever span a traced run has
open, a few per cent of each.
"""

import signal
import statistics
import time

import numpy as np

# About the fastest kernel() time in a minute of calls on that VM. It sets
# only the scale: another value would multiply every corrected time by one
# factor.
REF_S = 0.0040
SAMPLE_S = 0.2  # host-speed sampling period during a timed operation

_IMAGE = np.random.default_rng(0).random((64, 64))
_MATRIX = np.random.default_rng(1).random((96, 96))


def kernel():
    """A few milliseconds of the program's kinds of work: 2-D FFTs,
    elementwise array arithmetic, a small matrix product and a Python loop."""
    x = _IMAGE
    for _ in range(24):
        x = np.real(np.fft.ifft2(np.fft.fft2(x) * 0.5 + 1.0))
        x = np.maximum(x, 0.1) / (1.0 + x)
    y = _MATRIX
    for _ in range(4):
        y = _MATRIX @ y.T / 96.0
    total = 0
    for i in range(20000):
        total += i * i
    return float(x.sum() + y.trace() + total)


kernel()  # the first call plans the FFTs; later calls time only the work


class _Sampler:
    """SIGALRM handler that times kernel() every SAMPLE_S seconds of wall time."""

    def __init__(self):
        self.slowdowns = []
        self.spent_s = 0.0  # wall time spent in the handler

    def __call__(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.slowdowns.append((t1 - t0) / REF_S)
        self.spent_s += time.perf_counter() - t0


def timed(fn, *args, **kwargs):
    """Run fn(*args, **kwargs) while sampling the host's slowdown, kernel()
    time over REF_S, before, during and after it; returns (result, corrected
    seconds, mean slowdown)."""
    sampler = _Sampler()
    sampler(None, None)
    previous = signal.signal(signal.SIGALRM, sampler)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
    try:
        t0 = time.perf_counter()
        spent0 = sampler.spent_s
        result = fn(*args, **kwargs)
        seconds = time.perf_counter() - t0 - (sampler.spent_s - spent0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
    sampler(None, None)
    factor = statistics.fmean(sampler.slowdowns)
    return result, seconds / factor, factor
