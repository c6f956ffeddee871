"""Statistics helpers for the benchmark: percentiles, spreads, failures.

Every latency the benchmark reports is computed here from raw client-side
samples.  The service's own registry histograms are never read for
latency, because their quantiles are bucket edges, not measurements.
"""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only when at least this many samples lie
#: beyond it; with fewer, the tail is a handful of outliers, not a
#: measurement.
MIN_TAIL_SAMPLES = 10


def min_samples_for(percentile: float) -> int:
    """Samples needed before a tail ``percentile`` has ``MIN_TAIL_SAMPLES``
    beyond it; the median (and anything below) needs one sample.

    >>> min_samples_for(50), min_samples_for(90), min_samples_for(99)
    (1, 100, 1000)
    """
    if not 0 < percentile < 100:
        raise ValueError(f"percentile must be in (0, 100), got {percentile}")
    if percentile <= 50:
        return 1
    return math.ceil(MIN_TAIL_SAMPLES * 100 / (100 - percentile) - 1e-9)


def has_enough_samples(count: int, percentile: float) -> bool:
    """Whether ``count`` samples support reporting ``percentile``."""
    return count >= min_samples_for(percentile)


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile of raw samples (no interpolation, so the
    value is always one that was measured).

    Raises ``ValueError`` when the samples cannot support it.

    >>> percentile(list(range(1, 101)), 50)
    50
    >>> percentile(list(range(1, 1001)), 99)
    990
    """
    values = sorted(samples)
    if not has_enough_samples(len(values), p):
        raise ValueError(
            f"p{p:g} needs {min_samples_for(p)} samples, got {len(values)}"
        )
    rank = math.ceil(p * len(values) / 100 - 1e-9)
    return values[max(rank, 1) - 1]


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as
    ``statistics.quantiles(values, n=4)`` gives them."""
    q1, median, q3 = statistics.quantiles(list(values), n=4)
    return q1, median, q3


def failed_fraction(failed: int, attempted: int) -> float:
    """Failed operations as a share of those attempted."""
    if attempted < 1:
        raise ValueError("no operations were attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def open_loop_lateness(due, sent) -> list[float]:
    """How late an open-loop generator ran: send time minus due time for
    each request, clipped at 0 (a request sent early was not late).

    >>> open_loop_lateness([0.0, 1.0, 2.0], [0.0, 1.5, 1.9])
    [0.0, 0.5, 0.0]
    """
    if len(due) != len(sent):
        raise ValueError("due and sent schedules differ in length")
    return [max(0.0, s - d) for d, s in zip(due, sent)]


def latency_summary(samples_s, percentiles=(50, 90, 99)) -> dict:
    """The percentiles of latency samples (seconds in, ms out) that the
    sample count supports, with the count beside them."""
    summary = {"samples": len(samples_s)}
    for p in percentiles:
        if has_enough_samples(len(samples_s), p):
            summary[f"p{p:g}_ms"] = percentile(samples_s, p) * 1e3
    return summary
