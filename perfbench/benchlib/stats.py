"""Summary statistics with the sample counts that back them."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

#: Percentiles the tail rule chooses from, highest last.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``q`` percent of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(samples: Sequence[float],
                    cap: float = TAIL_LADDER[-1]) -> Tuple[float, float]:
    """``(q, value)`` for the highest ladder percentile ``q <= cap`` that
    has at least :data:`MIN_BEYOND` samples above its rank.

    Raises ``ValueError`` when even the median lacks that many, so a
    tail figure is never reported from too few samples.
    """
    n = len(samples)
    chosen = None
    for q in TAIL_LADDER:
        if q > cap:
            break
        if n - math.ceil(q / 100.0 * n) >= MIN_BEYOND:
            chosen = q
    if chosen is None:
        raise ValueError(f"{n} samples: no percentile has "
                         f"{MIN_BEYOND} samples beyond it")
    return chosen, percentile(samples, chosen)


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("median of no samples")
    return statistics.median(samples)


def geomean(values: Sequence[float]) -> float:
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))
