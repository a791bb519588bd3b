"""Statistics of a perfbench run: percentiles, the tail rule, lag checks.

Pure functions over the raw records mbirbench prints; run.py turns them
into the end-to-end and per-layer metrics, and test_perfbench.py pins
their behaviour.
"""

import math
import statistics

# Percentiles the tail metric may land on, lowest first: the usual
# reporting percentiles. Each rung covers a wide range of sample counts
# (p95 from 200 to 999 samples, p99 from 1000 to 9999), so run-to-run
# changes in how many jobs a closed loop finishes rarely move the tail to
# another rung.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
# A tail percentile must have at least this many samples beyond it.
MIN_BEYOND = 10


def median(values):
    """Median of a sample, 0.0 when it is empty."""
    return statistics.median(values) if values else 0.0


def nearest_rank(sorted_values, pct):
    """The pct-th percentile by the nearest-rank rule (pct in (0, 100])."""
    n = len(sorted_values)
    rank = max(1, math.ceil(pct * n / 100.0))
    return sorted_values[min(rank, n) - 1]


def beyond(n, pct):
    """How many of n samples lie strictly above the nearest-rank pct."""
    return n - max(1, math.ceil(pct * n / 100.0))


def tail(values, cap=TAIL_LADDER[-1]):
    """The highest ladder percentile, up to cap, with >= MIN_BEYOND
    samples beyond it.

    Returns (value, pct, n). A workload caps the rung at the one its
    sample count lies well inside, so a fast run that finishes more jobs
    does not jump to a higher rung. With fewer than 2 * MIN_BEYOND samples
    no rung qualifies and the median rung (50) is used; callers report the
    percentile and n next to the value, so a short run is visible.
    """
    v = sorted(values)
    n = len(v)
    if n == 0:
        return 0.0, 50.0, 0
    pct = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if p <= cap and beyond(n, p) >= MIN_BEYOND:
            pct = p
    return nearest_rank(v, pct), pct, n


def lag_summary(lags):
    """(p50, max) of how late the load generator sent its requests."""
    if not lags:
        return 0.0, 0.0
    return median(lags), max(lags)


def lag_violation(lags, bound_s):
    """None when every request went out within bound_s of its due time,
    else a message naming the worst lag (the run is then invalid)."""
    worst = max(lags, default=0.0)
    if worst > bound_s:
        return ("load generator fell %.4f s behind its schedule "
                "(limit %.4f s): run invalid" % (worst, bound_s))
    return None


def spread(values):
    """Interquartile range over the median: the run-to-run spread."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


HOST_KEYS = ("nproc", "cpu_model", "simd", "build_type", "compiler")


def host_mismatch(a, b):
    """Names of the host-record fields on which two results differ."""
    return [k for k in HOST_KEYS if a.get(k) != b.get(k)]
