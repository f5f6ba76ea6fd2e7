"""Summary statistics used by the benchmark report.

Kept free of numpy and of the package under test so the tests in
``test_bench.py`` can pin the arithmetic down exactly.
"""

from __future__ import annotations

import math
import statistics

# A reported tail percentile must leave at least this many samples beyond it,
# and be at least p90, which takes TAIL_BEYOND * 10 samples.
TAIL_BEYOND = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, float, int] | None:
    """The highest order statistic with at least ``beyond`` samples above it.

    Returns ``(value, percentile, sample_count)``, ``percentile`` being the
    share of samples at or below the chosen one, in percent, or ``None``
    when there are too few samples for that percentile to reach p90.
    """
    ordered = sorted(values)
    k = len(ordered)
    if k < 10 * beyond:
        return None
    i = k - beyond - 1
    return float(ordered[i]), 100.0 * (i + 1) / k, k


def best_times(samples, keys) -> list[float]:
    """Each op's best time, pooled over the ops that share its key.

    ``samples[i]`` holds op i's times; ops with equal ``keys`` are the same
    input run several times a pass, so each gets the best of all their samples.
    """
    pooled = {}
    for key, times in zip(keys, samples):
        pooled[key] = min(pooled.get(key, math.inf), min(times))
    return [pooled[key] for key in keys]


def ratio(numerator: int, base: int) -> float:
    """numerator / base, defined as 0.0 when the base is 0 (nothing attempted)."""
    if numerator < 0 or base < 0 or numerator > base:
        raise ValueError(f"ratio needs 0 <= numerator <= base, got {numerator}/{base}")
    return numerator / base if base else 0.0
