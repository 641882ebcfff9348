"""Summary statistics the benchmark reports."""

from __future__ import annotations

__all__ = ["tail"]

#: a tail percentile is reported only with this many samples beyond it
TAIL_BEYOND = 10


def tail(values, beyond: int = TAIL_BEYOND) -> tuple:
    """The highest percentile that has at least ``beyond`` samples above it.

    Returns (value, percentile, sample count); the value is the
    ``(N - beyond)``-th smallest sample.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, got {n}")
    ordered = sorted(values)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n
