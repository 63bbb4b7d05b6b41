"""The reportable tail of a latency sample.

A latency is reported as its median plus the highest percentile that
still has at least :data:`MIN_BEYOND` samples above it — a p99 read off
200 samples is one sample's noise, so the tail percentile a run may
claim depends on how many samples it took.
"""

from __future__ import annotations

import math

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND = 10

#: Tail percentiles, highest first; :func:`tail` picks the first one
#: the sample count supports.
TAIL_QUANTILES = (0.999, 0.99, 0.95, 0.90, 0.50)


def rank_value(ordered: "list[float]", q: float) -> float:
    """Nearest-rank percentile ``q`` of an already sorted list."""
    k = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[k - 1]


def tail(samples: "list[float]") -> "dict[str, float] | None":
    """The highest percentile in :data:`TAIL_QUANTILES` with at least
    :data:`MIN_BEYOND` samples beyond it, as ``{"q", "value", "n"}``;
    ``None`` when even the median lacks that support."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in TAIL_QUANTILES:
        if n - max(1, math.ceil(round(q * n, 9))) >= MIN_BEYOND:
            return {"q": q, "value": rank_value(ordered, q), "n": n}
    return None
