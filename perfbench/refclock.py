"""Timing in reference seconds, which discounts the machine's changing speed.

On a shared 2-core Intel Xeon virtual machine, a fixed pure-Python loop ran
up to 1.6x slower for stretches of one to tens of seconds, and CPU time
slowed with wall time, so the slowdown is not time stolen by the hypervisor
but slower execution.  The same elekes-scan took anywhere from 3.0 s to
5.0 s in runs a minute apart.

A Timer therefore samples the machine's speed while the timed block runs: a
SIGALRM every INTERVAL_S runs a small fixed kernel of Fraction arithmetic
and dict updates, like the program's hot paths, and times it.  The block's
wall time, less the kernel time, multiplied by the mean of
REF_KERNEL_S / kernel time, is its time in reference seconds: how long it
would take on a machine that runs the kernel in REF_KERNEL_S.  In one 30 s
run of each workload this cut the pass-to-pass coefficient of variation
from 0.10-0.21 of wall time to 0.015-0.065.

The machine's slow stretches do not slow all code alike: the kernel tracks
the Fraction-heavy censuses better than the integer rectangle scan of
rects-mu, whose runs spread most.  A kernel with integer set lookups added
did no better there: its quartile spread over ten rects-mu runs was 0.11,
against 0.03-0.05 for this one.

Sampling runs in the main thread (signal handlers run between bytecodes),
so the benchmark stays one process with no threads.  The kernel costs about
3% of the block's time, which is excluded from both figures.  now() is a
clock that stops while the kernel runs, so that times taken inside a timed
block, such as tracing spans, hold no kernel time either.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.02
REF_KERNEL_S = 0.0006  # the kernel's time at reference speed
MIN_SAMPLES = 3

_kernel_s = 0.0  # kernel time of every sample taken so far


def now():
    """perf_counter less the kernel time of every sample so far."""
    while True:
        k = _kernel_s
        t = time.perf_counter()
        if _kernel_s == k:  # no sample ran in between
            return t - k


def kernel():
    counts = {}
    total = Fraction(0)
    for i in range(1, 60):
        v = Fraction(i * 7919 % 1013, i) * Fraction(3, i + 1)
        counts[v] = counts.get(v, 0) + 1
        total += v
    return total


class Timer:
    """Context manager that times its block in wall and reference seconds."""

    def __init__(self):
        self.samples = []
        self.wall = self.ref = 0.0

    def _probe(self, signum, frame):
        global _kernel_s
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        _kernel_s += dt

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.wall = elapsed - sum(self.samples)
        while len(self.samples) < MIN_SAMPLES:  # a block shorter than a few intervals
            self._probe(None, None)
        self.ref = self.wall * statistics.fmean(REF_KERNEL_S / s for s in self.samples)
        return False
