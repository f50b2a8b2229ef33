"""Tests for the shared percentile / summary math."""

import pytest

from repro.obs.hist import percentile, summarize


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 50.0) == 0.0

    def test_single_value(self):
        assert percentile([3.5], 99.0) == 3.5

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5

    def test_endpoints(self):
        values = [1.0, 5.0, 9.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 100.0) == 9.0

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)


class TestSummarize:
    def test_empty_is_all_zeros(self):
        s = summarize([])
        assert s == {"count": 0, "sum": 0.0, "min": 0.0, "mean": 0.0,
                     "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_unsorted_input(self):
        s = summarize([3.0, 1.0, 2.0])
        assert s["count"] == 3
        assert s["min"] == 1.0
        assert s["max"] == 3.0
        assert s["mean"] == pytest.approx(2.0)
        assert s["p50"] == 2.0

    def test_percentiles_match_shared_math(self):
        values = list(range(100))
        s = summarize(values)
        ordered = sorted(float(v) for v in values)
        assert s["p95"] == percentile(ordered, 95.0)
        assert s["p99"] == percentile(ordered, 99.0)

    def test_single_sample_everywhere(self):
        """Every statistic of a one-sample series is that sample."""
        s = summarize([0.42])
        assert s["count"] == 1
        for key in ("min", "mean", "max", "p50", "p95", "p99"):
            assert s[key] == 0.42

    def test_duplicate_values_at_percentile_boundaries(self):
        """A run of equal values straddling a percentile rank must
        interpolate to exactly that value, not drift off it."""
        values = [1.0] * 50 + [2.0] * 50
        s = summarize(values)
        assert s["p95"] == 2.0
        assert s["p99"] == 2.0
        all_same = summarize([7.0] * 10)
        assert all_same["p50"] == all_same["p95"] == all_same["p99"] == 7.0

    def test_two_samples_interpolate(self):
        s = summarize([0.0, 1.0])
        assert s["p50"] == 0.5
        assert s["p99"] == pytest.approx(0.99)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            summarize([1.0, bad, 2.0])


class TestHistogramObserve:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_observation_rejected(self, bad):
        from repro.obs.metrics import Histogram

        h = Histogram()
        h.observe(1.0)
        with pytest.raises(ValueError, match="finite"):
            h.observe(bad)
        assert h.count == 1              # the bad sample never lands

    def test_null_registry_still_swallows_everything(self):
        """The disabled path must stay allocation- and check-free."""
        from repro.obs.metrics import NULL_REGISTRY

        NULL_REGISTRY.histogram("x").observe(float("nan"))
