"""Percentiles under the benchmark's sample-support rule.

A timing is reported as its median and the highest percentile that has at
least ``MIN_BEYOND`` samples strictly beyond it. Percentiles use the
nearest-rank definition, so every reported value is an observed sample.
"""
from __future__ import annotations

import math
from fractions import Fraction

MIN_BEYOND = 10
CANDIDATES = (50, 75, 90, 95, 99, 99.9)


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile p among n samples."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def samples_beyond(p: float, n: int) -> int:
    return n - _rank(p, n)


def supported(p: float, n: int) -> bool:
    """True when percentile p of n samples has at least MIN_BEYOND beyond it."""
    return n > 0 and samples_beyond(p, n) >= MIN_BEYOND


def highest_supported(n: int, candidates=CANDIDATES) -> float | None:
    """The highest candidate percentile that n samples support, or None."""
    ok = [p for p in candidates if supported(p, n)]
    return max(ok) if ok else None


def min_samples(p: float) -> int:
    """Smallest sample count that supports percentile p."""
    n = 1
    while not supported(p, n):
        n += 1
    return n


def percentile(values, p: float, require_support: bool = True) -> float:
    """Nearest-rank percentile; raises if the sample cannot support it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if require_support and p != 50 and not supported(p, len(xs)):
        raise ValueError(f"p{p} needs {min_samples(p)} samples, have {len(xs)}")
    return xs[_rank(p, len(xs)) - 1]


def median(values) -> float:
    return percentile(values, 50)
