"""The benchmark's arithmetic: percentiles, medians, the pace check."""

from __future__ import annotations

import math
from typing import Sequence

#: Percentiles tried, highest first, when reporting a latency tail.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10

#: Client CPU share at or above which the client, not the server, may
#: have set the pace of a phase.
CLIENT_BOUND_SHARE = 0.9


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``pct`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), pct) - 1]


def _rank(n: int, pct: float) -> int:
    # Rounded first so that 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def beyond(n: int, pct: float) -> int:
    """Samples strictly above the nearest-rank ``pct`` percentile of ``n``."""
    return n - _rank(n, pct)


def supported(n: int, pct: float) -> bool:
    """Whether ``n`` samples leave at least ``MIN_BEYOND`` beyond ``pct``."""
    return beyond(n, pct) >= MIN_BEYOND


def highest_supported(n: int) -> float | None:
    """The highest ladder percentile with ``MIN_BEYOND`` samples beyond it."""
    for pct in TAIL_LADDER:
        if supported(n, pct):
            return pct
    return None


def windows(
    times: Sequence[float],
    values: Sequence[float],
    start: float,
    end: float,
    count: int,
) -> list[list[float]]:
    """``values`` split into ``count`` equal time windows of
    ``[start, end)`` by their ``times``."""
    width = (end - start) / count
    out: list[list[float]] = [[] for _ in range(count)]
    for t, v in zip(times, values):
        i = int((t - start) / width)
        if 0 <= i < count:
            out[i].append(v)
    return out


def window_count(samples: int, per_window: int, most: int) -> int:
    """How many windows ``samples`` can fill with ``per_window`` each
    (at least 1, at most ``most``)."""
    return max(1, min(most, samples // per_window))


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def pace_warning(cpu_share: float) -> str | None:
    """A warning when the client's CPU share says it set the pace."""
    if cpu_share >= CLIENT_BOUND_SHARE:
        return (
            f"client CPU share {cpu_share:.2f} >= {CLIENT_BOUND_SHARE}: the "
            f"client, not the server, may have set the pace of this phase"
        )
    return None
