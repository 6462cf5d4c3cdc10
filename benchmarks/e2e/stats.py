"""Sample statistics for the end-to-end benchmark.

Timings are reported as a median plus one tail percentile.  One rule is
enforced here and nowhere else: a tail percentile is reported only when
at least :data:`MIN_BEYOND` samples lie beyond it, so "p99" can never
again mean "the max of 40 queries".
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

__all__ = [
    "MIN_BEYOND",
    "percentile",
    "quantile_interval",
    "quartiles",
    "spread",
    "summary",
]

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float, *, strict: bool = True) -> float:
    """The ``q``-th tail percentile (nearest rank) of ``samples``.

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples lie
    beyond the requested rank.  ``strict=False`` (smoke runs only) skips
    that check; such values are not comparable between runs.
    """
    if not 50.0 < q < 100.0:
        raise ValueError(f"tail percentile must be in (50, 100), got {q}")
    n = len(samples)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * n))
    if strict and n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has only {n - rank} beyond it; "
            f"at least {MIN_BEYOND} are required"
        )
    return sorted(samples)[rank - 1]


def quartiles(samples: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    if len(samples) < 2:
        value = float(samples[0])
        return value, value, value
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def spread(samples: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(samples)
    return (q3 - q1) / q2 if q2 else 0.0


def quantile_interval(samples: Sequence[float], q: float = 50.0) -> tuple[float, float]:
    """Where the middle half of repeated measurements of the ``q``-th
    percentile would fall, estimated from this one sample.

    The number of samples below the true quantile is binomial, so the
    order statistics at ``n*q +- 0.6745*sqrt(n*q*(1-q))`` bracket the
    quantile half of the time.  That is the run-to-run spread of a
    reported median or tail; the quartiles, by contrast, describe single
    operations.  A handful of samples gives roughly their own quartiles,
    hundreds give a tight interval.
    """
    ordered = sorted(samples)
    n, p = len(ordered), q / 100.0
    half = 0.6745 * math.sqrt(n * p * (1.0 - p))
    lo = max(0, math.floor(n * p - half) - 1)
    hi = min(n - 1, math.ceil(n * p + half))
    return ordered[lo], ordered[hi]


def summary(samples: Sequence[float], q: float = 50.0) -> Dict[str, float]:
    """Sample count, quartiles, extremes, and the run-to-run interval
    (:func:`quantile_interval`) of the reported percentile — the median
    unless ``q`` says otherwise."""
    q1, q2, q3 = quartiles(samples)
    lo, hi = quantile_interval(samples, q)
    return {
        "n": len(samples),
        "q1": q1,
        "median": q2,
        "q3": q3,
        "min": min(samples),
        "max": max(samples),
        "lo": lo,
        "hi": hi,
    }
