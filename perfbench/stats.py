"""Percentiles and summaries for the benchmark's reports."""

import math

# A percentile is reported only with at least this many samples beyond it.
MIN_TAIL = 10


def nearest_rank(values, q):
    """Nearest-rank percentile: the smallest value with at least a
    fraction q of the samples at or below it. +inf samples (failed or
    refused operations) sort last, so they count as missing any limit."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 1:
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, q):
    """How many of n samples lie past the nearest-rank q percentile."""
    return n - max(1, math.ceil(q * n))


def has_tail(n, q):
    """True when the q percentile of n samples has MIN_TAIL samples beyond it."""
    return samples_beyond(n, q) >= MIN_TAIL


def tail_percentile(values, q):
    """The nearest-rank q percentile when it has MIN_TAIL samples beyond
    it; otherwise the highest percentile that has, but never below the
    median. Returns (value, percentile used)."""
    n = len(values)
    usable = max(0.5, (n - MIN_TAIL) / n)
    used = min(q, usable)
    return nearest_rank(values, used), used


def median(values):
    """The middle value (the lower middle of an even count), as measured."""
    return nearest_rank(values, 0.5)
