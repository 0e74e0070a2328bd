"""A fixed calibration that gauges the host's speed next to each timing.

On a shared host the same code runs up to twice as slow for tens of
seconds at a time.  The calibration is an exact harmonic sum in Fraction
arithmetic: the kind of work the library does (object allocation,
big-integer gcd) but none of its code.  Timed right before and right after
a task, it slows with the task: over 90 s in which raw task times moved by
50%, their ratio to it moved by under 6%.

A time t measured next to a calibration of c seconds is reported as
t * REF_S / c, the time it would take on a host where the calibration
takes REF_S (an unloaded 2-core Xeon under Python 3.11).  Work that slows
less than the calibration takes an exponent below 1: t * (REF_S / c) ** k.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

TERMS = 400
REF_S = 0.0009


def seconds(runs: int = 1) -> float:
    """Median time of `runs` runs of the calibration."""
    samples = []
    for _ in range(runs):
        start = time.perf_counter()
        total = Fraction(0)
        for k in range(1, TERMS):
            total += Fraction(1, k)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def at_ref(measured: float, before: float, after: float, exponent: float = 1.0) -> float:
    """Rescale a time measured between two calibrations to the reference speed."""
    return measured * (REF_S / ((before + after) / 2)) ** exponent
