"""Unit tests for the metrics registry and histogram."""

import pytest

from repro.obs.metrics import BUCKETS, Histogram, Metrics
from scrape import scraped


class TestHistogram:
    def test_observations_land_in_le_buckets(self):
        histogram = Histogram()
        histogram.observe(0.007)
        histogram.observe(0.01)  # le="0.01" includes the bound itself
        histogram.observe(0.7)
        histogram.observe(50.0)  # +Inf bucket
        cumulative = dict(histogram.cumulative())
        assert cumulative[0.01] == 2
        assert cumulative[0.1] == 2
        assert cumulative[1.0] == 3
        assert cumulative[float("inf")] == 4
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(50.717)

    def test_quantile_reports_bucket_bound(self):
        histogram = Histogram()
        for _ in range(99):
            histogram.observe(0.007)
        histogram.observe(0.7)
        assert histogram.quantile(0.5) == 0.01
        assert histogram.quantile(1.0) == 1.0

    def test_every_histogram_has_the_one_ascending_bucket_list(self):
        assert list(BUCKETS) == sorted(set(BUCKETS))
        bounds = [bound for bound, _ in Histogram().cumulative()]
        assert bounds == [*BUCKETS, float("inf")]

    def test_quantile_of_empty_histogram_is_zero(self):
        assert Histogram().quantile(0.99) == 0.0

    def test_rejects_a_quantile_out_of_range(self):
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)


class TestMetrics:
    def test_request_counting_by_route_and_status(self):
        metrics = Metrics()
        metrics.observe_request("/api/zoom", 200, 0.05)
        metrics.observe_request("/api/zoom", 200, 0.07)
        metrics.observe_request("/api/zoom", 404, 0.001)
        metrics.observe_request("/healthz", 200, 0.001)
        assert scraped(metrics, "blaeu_requests_total") == 4
        assert scraped(metrics, "blaeu_requests_total", route="/api/zoom") == 3
        assert metrics.histogram("/api/zoom").count == 3
        assert metrics.histogram("/missing") is None

    def test_render_exposes_counters_histograms_and_gauges(self):
        metrics = Metrics()
        metrics.observe_request("/api/open", 200, 0.02)
        metrics.set_gauge("blaeu_cache_entries", 3)
        text = metrics.render()
        assert (
            'blaeu_requests_total{route="/api/open",status="200"} 1' in text
        )
        assert 'blaeu_request_seconds_bucket{route="/api/open",le="0.025"} 1' in text
        assert 'le="+Inf"' in text
        assert 'blaeu_request_seconds_count{route="/api/open"} 1' in text
        assert "blaeu_cache_entries 3" in text
        assert text.endswith("\n")

    def test_gauges_overwrite(self):
        metrics = Metrics()
        metrics.set_gauge("g", 1)
        metrics.set_gauge("g", 2)
        assert "g 2" in metrics.render()
