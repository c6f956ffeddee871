"""Tests for plug-in confidence intervals."""

import numpy as np
import pytest
import scipy.stats

from repro.analysis import per_user_variances, reconstruction_operator
from repro.exceptions import WorkloadError
from repro.mechanisms import hadamard_response, randomized_response
from repro.optimization import OptimizerConfig, optimize_strategy
from repro.postprocess import per_query_variances, workload_confidence_intervals
from repro.postprocess.intervals import (
    confidence_intervals_from_factors,
    variance_factors,
)
from repro.workloads import histogram, prefix


class TestPerQueryVariances:
    def test_sums_to_total_variance(self):
        # Summing per-query variances over queries must equal Theorem 3.4's
        # total variance.
        workload = prefix(5)
        strategy = randomized_response(5, 1.0)
        operator = reconstruction_operator(strategy.probabilities)
        x = np.array([10.0, 3.0, 0.0, 7.0, 5.0])
        per_query = per_query_variances(workload, strategy, operator, x)
        total = x @ per_user_variances(
            strategy.probabilities, workload.gram(), operator
        )
        assert np.isclose(per_query.sum(), total)

    def test_nonnegative(self):
        workload = histogram(4)
        strategy = randomized_response(4, 1.0)
        operator = reconstruction_operator(strategy.probabilities)
        variances = per_query_variances(
            workload, strategy, operator, np.array([5.0, 5.0, 5.0, 5.0])
        )
        assert (variances >= -1e-9).all()

    def test_rejects_negative_weights(self):
        workload = histogram(3)
        strategy = randomized_response(3, 1.0)
        operator = reconstruction_operator(strategy.probabilities)
        with pytest.raises(WorkloadError):
            per_query_variances(workload, strategy, operator, np.array([1.0, -1.0, 1.0]))

    def test_matches_empirical_variance(self, rng):
        workload = prefix(4)
        strategy = randomized_response(4, 1.0)
        operator = reconstruction_operator(strategy.probabilities)
        x = np.array([30.0, 20.0, 10.0, 40.0])
        predicted = per_query_variances(workload, strategy, operator, x)
        samples = np.array(
            [
                workload.matvec(operator @ strategy.sample_histogram(x, rng))
                for _ in range(600)
            ]
        )
        empirical = samples.var(axis=0)
        assert np.allclose(empirical, predicted, rtol=0.25)


class TestConfidenceIntervals:
    def test_structure(self, rng):
        workload = prefix(4)
        strategy = randomized_response(4, 1.0)
        operator = reconstruction_operator(strategy.probabilities)
        y = strategy.sample_histogram(np.full(4, 100.0), rng)
        result = workload_confidence_intervals(workload, strategy, operator, y)
        assert (result.lower <= result.estimates).all()
        assert (result.estimates <= result.upper).all()
        assert result.confidence == 0.95

    def test_wider_at_higher_confidence(self, rng):
        workload = histogram(4)
        strategy = randomized_response(4, 1.0)
        operator = reconstruction_operator(strategy.probabilities)
        y = strategy.sample_histogram(np.full(4, 50.0), rng)
        narrow = workload_confidence_intervals(
            workload, strategy, operator, y, confidence=0.8
        )
        wide = workload_confidence_intervals(
            workload, strategy, operator, y, confidence=0.99
        )
        assert (wide.upper - wide.lower > narrow.upper - narrow.lower).all()

    def test_rejects_bad_confidence(self, rng):
        workload = histogram(3)
        strategy = randomized_response(3, 1.0)
        operator = reconstruction_operator(strategy.probabilities)
        with pytest.raises(WorkloadError):
            workload_confidence_intervals(
                workload, strategy, operator, np.ones(3), confidence=1.5
            )

    def test_coverage_calibrated(self, rng):
        # Over repeated protocol runs, the 90% intervals should cover the
        # true answers ~90% of the time (per query).
        workload = prefix(4)
        strategy = randomized_response(4, 1.0)
        operator = reconstruction_operator(strategy.probabilities)
        x = np.array([200.0, 150.0, 100.0, 50.0])
        truth = workload.matvec(x)
        covered = []
        for _ in range(300):
            y = strategy.sample_histogram(x, rng)
            result = workload_confidence_intervals(
                workload, strategy, operator, y, confidence=0.9
            )
            covered.append((result.lower <= truth) & (truth <= result.upper))
        coverage = np.mean(covered)
        assert 0.85 <= coverage <= 0.95


def _optimized(workload, epsilon):
    config = OptimizerConfig(num_iterations=30, seed=0)
    return optimize_strategy(workload, epsilon, config).strategy


STRATEGIES = {
    "rr": lambda workload: randomized_response(workload.domain_size, 1.0),
    "hadamard": lambda workload: hadamard_response(workload.domain_size, 1.0),
    "optimized": lambda workload: _optimized(workload, 1.0),
}


def oracle_variances(workload, strategy, operator, x):
    """Theorem 3.4 written out inline, operation for operation."""
    reconstruction = workload.matrix @ operator
    q = strategy.probabilities
    return reconstruction**2 @ (q @ x) - (reconstruction @ q) ** 2 @ x


@pytest.mark.parametrize("make_workload", [histogram, prefix])
@pytest.mark.parametrize("strategy_name", sorted(STRATEGIES))
class TestVarianceFactorsMatchTheOracle:
    """Prebuilt factors give bit-for-bit the inline formula's answers."""

    @pytest.fixture
    def mechanism(self, make_workload, strategy_name):
        workload = make_workload(8)
        strategy = STRATEGIES[strategy_name](workload)
        return workload, strategy, reconstruction_operator(strategy.probabilities)

    def test_variances(self, mechanism, rng):
        workload, strategy, operator = mechanism
        x = rng.integers(0, 50, size=8).astype(float)
        assert np.array_equal(
            per_query_variances(workload, strategy, operator, x),
            oracle_variances(workload, strategy, operator, x),
        )

    def test_intervals(self, mechanism, rng):
        workload, strategy, operator = mechanism
        y = strategy.sample_histogram(rng.integers(0, 50, size=8), rng)
        data_estimate = operator @ y
        estimates = workload.matvec(data_estimate)
        plug_in = np.clip(data_estimate, 0.0, None)
        plug_in = plug_in * (y.sum() / plug_in.sum())
        variances = oracle_variances(workload, strategy, operator, plug_in)
        standard_errors = np.maximum(
            np.sqrt(np.clip(variances, 0.0, None)), 1e-9 * (1.0 + np.abs(estimates))
        )
        factors = variance_factors(workload, strategy, operator)
        for result in (
            workload_confidence_intervals(workload, strategy, operator, y, 0.9),
            confidence_intervals_from_factors(
                workload, strategy, operator, factors, y, 0.9
            ),
        ):
            assert np.array_equal(result.estimates, estimates)
            assert np.array_equal(result.standard_errors, standard_errors)
            z = scipy.stats.norm.ppf(0.95)
            assert np.array_equal(result.lower, estimates - z * standard_errors)
            assert np.array_equal(result.upper, estimates + z * standard_errors)

    def test_factors_are_read_only_squares(self, mechanism):
        workload, strategy, operator = mechanism
        squared, expectation_sq = variance_factors(workload, strategy, operator)
        reconstruction = workload.matrix @ operator
        assert np.array_equal(squared, reconstruction**2)
        assert np.array_equal(
            expectation_sq, (reconstruction @ strategy.probabilities) ** 2
        )
        for factor in (squared, expectation_sq):
            assert not factor.flags.writeable
            with pytest.raises(ValueError):
                factor[0, 0] = 0.0
