"""Summary statistics the benchmark reports.

Kept free of any import from the program under test so the tests can pin
the rules (tail percentile, geometric mean, spread) on their own.
"""

from __future__ import annotations

import math
import statistics

#: The tail percentile must leave at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q`` of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile rank must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of *n* samples lie strictly above the nearest-rank ``q`` percentile."""
    return n - max(1, math.ceil(q * n - 1e-9))


def min_samples_for_tail(q: float) -> int:
    """The smallest sample size that leaves :data:`MIN_BEYOND` samples beyond ``q``."""
    n = 1
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def tail(values: list[float], q: float) -> tuple[float, int, int]:
    """The pinned tail percentile with its sample count and samples beyond.

    Raises ``ValueError`` when the sample is too small for ``q``: a tail
    read from fewer than :data:`MIN_BEYOND` samples beyond it is one or two
    unlucky actions, not a percentile.
    """
    beyond = samples_beyond(len(values), q)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {len(values)} samples leaves {beyond} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return percentile(values, q), len(values), beyond


def gmean(values: list[float]) -> float:
    """Geometric mean of positive values (each action weighs the same)."""
    if not values:
        raise ValueError("geometric mean of an empty sample")
    if any(value <= 0 for value in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(math.fsum(math.log(value) for value in values) / len(values))


def spread(values: list[float]) -> dict[str, float]:
    """Median, IQR as a share of the median, and max/min of repeated runs.

    Quartiles come from ``statistics.quantiles(values, n=4)`` — the same
    rule used to judge whether the benchmark is steady.
    """
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    low, high = min(values), max(values)
    return {
        "median": median,
        "iqr_frac": (q3 - q1) / median if median else 0.0,
        "max_over_min": high / low if low else math.inf,
    }
