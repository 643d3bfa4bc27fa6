"""The speed of a shared machine, sampled while the benchmark measures.

On a shared machine the speed of the same computation flips between two
levels, about 1.8x apart, every 50 to 100 ms (see README.md, "Noise").
Inside `probe()` a SIGALRM handler runs a fixed kernel every
PROBE_INTERVAL_S, in the measuring thread, so the load stays one thread.
`ref_clock()` advances at the rate the latest sample measured, in
reference seconds: wall seconds at the speed at which the kernel takes
REFERENCE_S.  `clock()` is perf_counter() less the time the samples took,
so no measurement counts the probe's own work.
"""

from __future__ import annotations

import gc
import signal
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

PROBE_INTERVAL_S = 0.02
# Nominal time of one kernel_seconds() run.  It sets the level of every
# reference time; a change to the library cannot move the kernel.
REFERENCE_S = 0.0004

_probe_s = 0.0  # seconds spent in samples so far
_rate = 1.0  # reference seconds per clock() second, from the latest sample
_clock_at = 0.0  # clock() at the latest sample
_ref_at = 0.0  # ref_clock() at the latest sample


def kernel_seconds() -> float:
    """Wall time of a fixed run of Fraction additions, the library's staple work."""
    gc.disable()  # a collection of the library's garbage is not machine speed
    try:
        t0 = perf_counter()
        acc = Fraction(0)
        for i in range(1, 150):
            acc += Fraction(i % 7 + 1, i % 11 + 1)
        return perf_counter() - t0
    finally:
        gc.enable()


def clock() -> float:
    """perf_counter() less the time spent in samples."""
    return perf_counter() - _probe_s


def ref_clock() -> float:
    """Reference seconds: clock() time weighted by the machine speed sampled during it."""
    return _ref_at + (clock() - _clock_at) * _rate


def _sample(signum=None, frame=None):
    global _probe_s, _rate, _clock_at, _ref_at
    now = clock()
    _ref_at += (now - _clock_at) * _rate
    _clock_at = now
    t0 = perf_counter()
    _rate = REFERENCE_S / kernel_seconds()
    _probe_s += perf_counter() - t0


@contextmanager
def probe():
    """Sample the machine speed now and every PROBE_INTERVAL_S while the block runs."""
    previous = signal.signal(signal.SIGALRM, _sample)
    _sample()
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
