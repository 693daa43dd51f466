"""Statistics used to reduce per-op samples to the benchmark's metrics.

Pure functions, no dependencies, so the self-tests in test_stats.py can run
without building or running the program.
"""

import statistics


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def iqr_share(values):
    """Distance between the first and third quartile, as a share of the
    median (the spread measure the benchmark's bounds are checked against).
    """
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    m = median(values)
    return (q3 - q1) / m if m else 0.0


def tail(values):
    """The highest percentile that has at least ten samples beyond it.

    Returns (value, percentile, count). Sorted ascending, the sample at
    1-based rank k has n - k samples above it, so the highest rank with ten
    beyond it is k = n - 10, the (100 k / n)-th percentile. With ten
    samples or fewer no percentile qualifies; the minimum is returned with
    percentile 0, so the reader sees how little the figure says.
    """
    if not values:
        raise ValueError("tail of no samples")
    s = sorted(values)
    n = len(s)
    k = n - 10
    if k < 1:
        return s[0], 0.0, n
    return s[k - 1], 100.0 * k / n, n


def abab_pairs(samples, first="modular", second="monolith"):
    """Pair the two ops of each step of an interleaved (ABAB) run.

    `samples` are dicts with keys "op", "step" and "wall_ms"; a step holds
    one sample of each op, in either order. Steps missing either op are
    skipped. Returns [(first_ms, second_ms), ...] in step order.
    """
    by_step = {}
    for s in samples:
        by_step.setdefault(s["step"], {})[s["op"]] = s["wall_ms"]
    return [(ops[first], ops[second])
            for step, ops in sorted(by_step.items())
            if first in ops and second in ops]


def pair_ratio_median(pairs):
    """Median over pairs of first/second: each ratio compares two ops run
    back to back, so slow phases of the host cancel within a pair.
    """
    return median([a / b for a, b in pairs])
