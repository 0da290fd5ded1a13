"""Statistics shared by run.py and compare.py.

Every reduction the benchmark applies to raw samples lives here so it has
one definition and one set of tests (test_stats.py).
"""

import math
import statistics

def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def midmean(values):
    """Mean of the middle half of the sorted values (all of them if there
    are fewer than four).

    Where the samples fall into two modes (jobs that ran on a fast or on a
    slow core), the median sits in the gap and jumps with the share of each;
    the midmean moves with that share smoothly.
    """
    if not values:
        raise ValueError("midmean of no values")
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them.

    A single value is its own quartiles.
    """
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median (0 if median is 0)."""
    q1, _, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least a
    share q of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 < q <= 1.0:
        raise ValueError("percentile q must be in (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def best_of_reps(values, group):
    """Per-position minimum over consecutive repetitions of `group` values.

    The samples of one repetition follow those of the one before; the
    result has `group` values, the best time each position reached.
    """
    if group < 1 or not values or len(values) % group:
        raise ValueError(f"{len(values)} samples are not repetitions of "
                         f"{group}")
    reps = [values[i:i + group] for i in range(0, len(values), group)]
    return [min(column) for column in zip(*reps)]


def verdict(base, head, bound, better="lower"):
    """Compare two sets of runs of one metric against its bound.

    Returns (word, change) where change is the head median's move as a
    share of the base median, signed so that positive is worse. word is
    "worse" when that move exceeds the bound, "unresolved" when either
    side's own spread exceeds the bound, else "ok".
    """
    b, h = median(base), median(head)
    change = (h - b) / abs(b) if b else 0.0
    if better == "higher":
        change = -change
    if change > bound:
        return "worse", change
    if spread(base) > bound or spread(head) > bound:
        return "unresolved", change
    return "ok", change
