"""Scaling measured times to a reference CPU speed.

The machines this benchmark runs on share their cores with other tenants,
and the speed at which one process executes Python can halve and recover
within seconds.  Raw times then say more about the neighbours than about
qsym.  So the benchmark samples the speed while it measures: ``RateMeter``
times a fixed pure-Python kernel (exact fractions, tuple keys and a dict:
the operations qsym spends its time on) from a ``SIGALRM`` handler every
``SAMPLE_PERIOD_S`` seconds, in the measured process itself, so the samples
land inside the calls being timed.  The garbage collector is off while the
kernel runs, so collections of qsym's heap do not land in a sample; the
kernel still shares the process's caches with qsym.

``RateMeter.scaled`` takes an interval, removes the wall and CPU time the
samples inside it took, and scales the rest by ``REF_KERNEL_S`` over the
mean sample time in and next to the interval.  The result is the
interval's length on a machine that runs the kernel in ``REF_KERNEL_S``
seconds, the kernel's typical time on an unloaded 2-vCPU Xeon at 2.0 GHz
with Python 3.11.  The mean, not the median: samples evenly spread in time
make their mean duration proportional to the mean slowdown over the
interval, including the stretches where the process waits for a core,
which a median would drop.  On the same passes the mean gave the steadier
figures.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

REF_KERNEL_S = 0.0025
SAMPLE_PERIOD_S = 0.05


def ref_kernel(n: int = 1000) -> int:
    acc = {}
    third = Fraction(1, 3)
    for i in range(n):
        key = (i % 97, i % 13)
        prod = third * Fraction(i % 7 + 1, 5)
        old = acc.get(key)
        acc[key] = prod if old is None else old + prod
    return len(acc)


def time_ref_kernel(clock=time.perf_counter) -> float:
    """Wall seconds of one ``ref_kernel`` run, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        ref_kernel()
        return clock() - t0
    finally:
        if enabled:
            gc.enable()


def factor(samples) -> float:
    """Scale from the measured speed to the reference speed."""
    return REF_KERNEL_S / statistics.fmean(samples)


class RateMeter:
    """Speed samples of the reference kernel, taken every
    ``SAMPLE_PERIOD_S`` seconds while the meter is entered and whenever
    ``sample`` is called."""

    def __init__(self, clock=time.perf_counter, cpu_clock=time.process_time):
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.starts: list[float] = []   # wall clock at each sample's start
        self.seconds: list[float] = []  # wall seconds of each sample
        self.cpu: list[float] = []      # CPU seconds of each sample
        self._busy = False

    def sample(self, *_):
        if self._busy:  # the alarm fired during a sample: skip it
            return
        self._busy = True
        try:
            c0 = self.cpu_clock()
            start = self.clock()
            seconds = time_ref_kernel(self.clock)
            cpu = self.cpu_clock() - c0
            self.starts.append(start)
            self.seconds.append(seconds)
            self.cpu.append(cpu)
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, end: float, cpu: float) -> tuple[float, float]:
        """(wall, cpu) of the interval at the reference speed, without the
        samples taken inside it.  Needs a sample taken before ``start``."""
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_left(self.starts, end)
        near = self.seconds[max(i - 1, 0):j + 1]
        speed = factor(near)
        wall = end - start - sum(self.seconds[i:j])
        return wall * speed, (cpu - sum(self.cpu[i:j])) * speed
