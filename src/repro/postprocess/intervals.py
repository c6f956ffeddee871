"""Confidence intervals for workload estimates.

Theorem 3.4 gives the exact per-query variance of the factorization
mechanism as a function of the data vector.  The data vector is private,
but its unbiased estimate can be plugged in, giving asymptotically valid
per-query standard errors — the response histogram is a sum of ``N``
independent multinomials, so the estimates are asymptotically normal.

    Var[v_i^T y] = sum_u x_u [ v_i^T Diag(q_u) v_i - (v_i^T q_u)^2 ]

The plug-in uses ``x_hat`` clipped to be non-negative (a variance needs
non-negative weights); for moderate ``N`` the clipping bias is negligible
compared to the noise, and the coverage test in the test suite confirms the
intervals are calibrated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.stats

from repro.exceptions import WorkloadError
from repro.mechanisms.base import StrategyMatrix
from repro.workloads.base import Workload


@dataclass(frozen=True)
class IntervalEstimate:
    """Point estimates with symmetric confidence intervals."""

    estimates: np.ndarray
    standard_errors: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    confidence: float


def variance_factors(
    workload: Workload, strategy: StrategyMatrix, operator: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The data-independent factors ``(V∘V, (V Q)∘(V Q))`` with ``V = W B``.

    The variance depends on the data only through ``x``, so a
    deployment that answers many queries against one strategy builds these
    ``p x m`` and ``p x n`` arrays once.  Both are squared in place, so
    ``V`` and ``V Q`` are never held beside them, and returned read-only.
    """
    squared = workload.matrix @ operator
    expectation_sq = squared @ strategy.probabilities
    np.square(squared, out=squared)
    np.square(expectation_sq, out=expectation_sq)
    squared.setflags(write=False)
    expectation_sq.setflags(write=False)
    return squared, expectation_sq


def _variances(
    factors: tuple[np.ndarray, np.ndarray],
    strategy: StrategyMatrix,
    data_vector: np.ndarray,
) -> np.ndarray:
    # Per query i: sum_u x_u [ sum_o V_io^2 q_ou - ((V Q)_iu)^2 ].
    squared, expectation_sq = factors
    second_moment = squared @ (strategy.probabilities @ data_vector)
    return second_moment - expectation_sq @ data_vector


def per_query_variances(
    workload: Workload,
    strategy: StrategyMatrix,
    operator: np.ndarray,
    data_vector: np.ndarray,
) -> np.ndarray:
    """Exact per-query variances of ``V y`` at a given data vector.

    Per query ``i``: ``sum_u x_u [ (V^2) q_u - (V q_u)^2 ]_i`` with
    ``V = W B``.  Materializes ``workload.matrix`` and builds
    :func:`variance_factors` for this one call.
    """
    data_vector = np.asarray(data_vector, dtype=float)
    if data_vector.shape != (workload.domain_size,):
        raise WorkloadError(
            f"data vector shape {data_vector.shape} != ({workload.domain_size},)"
        )
    if data_vector.min() < 0:
        raise WorkloadError("variance weights must be non-negative")
    return _variances(
        variance_factors(workload, strategy, operator), strategy, data_vector
    )


def workload_confidence_intervals(
    workload: Workload,
    strategy: StrategyMatrix,
    operator: np.ndarray,
    response_histogram: np.ndarray,
    confidence: float = 0.95,
) -> IntervalEstimate:
    """Point estimates and plug-in CIs for every workload query.

    Parameters
    ----------
    workload, strategy, operator:
        The deployed mechanism (``operator`` is the reconstruction ``B``).
    response_histogram:
        The aggregated response vector ``y``.
    confidence:
        Two-sided confidence level in (0, 1).
    """
    return confidence_intervals_from_factors(
        workload,
        strategy,
        operator,
        variance_factors(workload, strategy, operator),
        response_histogram,
        confidence,
    )


def confidence_intervals_from_factors(
    workload: Workload,
    strategy: StrategyMatrix,
    operator: np.ndarray,
    factors: tuple[np.ndarray, np.ndarray],
    response_histogram: np.ndarray,
    confidence: float = 0.95,
) -> IntervalEstimate:
    """:func:`workload_confidence_intervals` on prebuilt
    :func:`variance_factors`: matrix-vector products only."""
    if not 0.0 < confidence < 1.0:
        raise WorkloadError(f"confidence must be in (0, 1), got {confidence}")
    response_histogram = np.asarray(response_histogram, dtype=float)
    data_estimate = operator @ response_histogram
    estimates = workload.matvec(data_estimate)
    plug_in = np.clip(data_estimate, 0.0, None)
    total = response_histogram.sum()
    if plug_in.sum() > 0 and total > 0:
        plug_in = plug_in * (total / plug_in.sum())
    variances = _variances(factors, strategy, plug_in)
    standard_errors = np.sqrt(np.clip(variances, 0.0, None))
    # Queries the mechanism answers exactly (e.g. the total count under a
    # doubly stochastic strategy) have zero variance; a floating-point floor
    # keeps their intervals from excluding the truth by round-off.
    floor = 1e-9 * (1.0 + np.abs(estimates))
    standard_errors = np.maximum(standard_errors, floor)
    z = scipy.stats.norm.ppf(0.5 + confidence / 2.0)
    return IntervalEstimate(
        estimates=estimates,
        standard_errors=standard_errors,
        lower=estimates - z * standard_errors,
        upper=estimates + z * standard_errors,
        confidence=confidence,
    )
