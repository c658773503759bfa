"""Latency summaries: nearest-rank percentiles and the tail rule.

The tail of a latency sample is the highest percentile on a fixed ladder
that still has at least ``MIN_BEYOND`` samples ranked above it, so that
one slow outlier cannot set it.  Ranks are computed in integer tenths of
a percent, which keeps 99.9 from rounding up a rank.
"""

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def _rank(n, pct):
    """1-based nearest rank of percentile pct among n sorted samples."""
    tenths = round(pct * 10)
    return max(1, -(-tenths * n // 1000))


def percentile(samples, pct):
    ordered = sorted(samples)
    return ordered[_rank(len(ordered), pct) - 1]


def tail(samples):
    """(percentile, value) of the tail; (100.0, max) when even p50 has too few beyond."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in reversed(TAIL_LADDER):
        k = _rank(n, pct)
        if n - k >= MIN_BEYOND:
            return pct, ordered[k - 1]
    return 100.0, ordered[-1]
