"""Self-tests for the benchmark's statistics helpers."""

import statistics

import pytest

from perfbench import stats


class TestSampleRule:
    @pytest.mark.parametrize(
        "percentile, needed", [(90, 100), (99, 1000), (99.9, 10000)]
    )
    def test_min_samples_leave_ten_beyond(self, percentile, needed):
        assert stats.min_samples_for(percentile) == needed
        values = list(range(needed))
        beyond = [v for v in values if v > stats.percentile(values, percentile)]
        assert len(beyond) == stats.MIN_TAIL_SAMPLES

    def test_one_sample_short_is_refused(self):
        assert not stats.has_enough_samples(999, 99)
        with pytest.raises(ValueError, match="p99 needs 1000 samples"):
            stats.percentile(range(999), 99)

    def test_median_needs_one_sample(self):
        assert stats.min_samples_for(50) == 1
        assert stats.percentile([0.4, 0.2, 0.3], 50) == 0.3

    @pytest.mark.parametrize("bad", [0, 100, -1])
    def test_percentile_range(self, bad):
        with pytest.raises(ValueError):
            stats.min_samples_for(bad)

    def test_percentile_is_a_measured_value(self):
        samples = [0.3, 0.1, 0.2] * 10
        assert stats.percentile(samples, 50) in samples


class TestQuartiles:
    def test_match_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
        assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))

    def test_constant_values(self):
        assert stats.quartiles([2.5] * 10) == (2.5, 2.5, 2.5)

    def test_needs_two_values(self):
        with pytest.raises(statistics.StatisticsError):
            stats.quartiles([1.0])


class TestFailedFraction:
    def test_fraction(self):
        assert stats.failed_fraction(0, 10) == 0.0
        assert stats.failed_fraction(3, 12) == 0.25

    @pytest.mark.parametrize("failed, attempted", [(1, 0), (-1, 5), (6, 5)])
    def test_invalid_counts(self, failed, attempted):
        with pytest.raises(ValueError):
            stats.failed_fraction(failed, attempted)


class TestOpenLoopLateness:
    def test_late_sends_count_and_early_sends_do_not(self):
        due = [0.0, 0.01, 0.02, 0.03]
        sent = [0.0, 0.015, 0.019, 0.05]
        assert stats.open_loop_lateness(due, sent) == pytest.approx(
            [0.0, 0.005, 0.0, 0.02]
        )

    def test_schedules_must_align(self):
        with pytest.raises(ValueError):
            stats.open_loop_lateness([0.0, 1.0], [0.0])

    def test_latency_summary_reports_sample_count(self):
        summary = stats.latency_summary([0.001] * 1000)
        assert summary == {"samples": 1000, "p50_ms": 1.0, "p90_ms": 1.0, "p99_ms": 1.0}

    def test_latency_summary_leaves_out_unsupported_percentiles(self):
        summary = stats.latency_summary([0.001] * 150)
        assert set(summary) == {"samples", "p50_ms", "p90_ms"}
        assert set(stats.latency_summary([0.001] * 12)) == {"samples", "p50_ms"}
