"""Order statistics the benchmark reports."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ``TAIL_BEYOND`` samples above it.

    Returns ``(value, percentile, samples_beyond)``.  The value is the sample
    of nearest rank ``r = n - TAIL_BEYOND``, which is the ``100*r/n``-th
    percentile.  With ``TAIL_BEYOND`` samples or fewer no rank qualifies; the
    minimum is returned and ``samples_beyond`` shows the shortfall.
    """
    if not samples:
        raise ValueError("no samples")
    xs = sorted(samples)
    n = len(xs)
    rank = max(1, n - TAIL_BEYOND)
    return xs[rank - 1], 100.0 * rank / n, n - rank


def median(samples: list[float]) -> float:
    return float(statistics.median(samples))
