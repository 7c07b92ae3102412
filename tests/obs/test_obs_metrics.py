"""Unit tests for the unified registry: validation, naming, globals."""

from __future__ import annotations

import pytest

from repro.obs.metrics import (
    Metrics,
    escape_label_value,
    get_metrics,
    reset_metrics,
)
from scrape import scraped


class TestValidation:
    @pytest.mark.parametrize(
        "bad", ["", "9starts_with_digit", "has-dash", "has space", "has\nnl"]
    )
    def test_malformed_metric_names_are_rejected(self, bad):
        metrics = Metrics()
        with pytest.raises(ValueError):
            metrics.increment(bad)
        with pytest.raises(ValueError):
            metrics.set_gauge(bad, 1.0)
        with pytest.raises(ValueError):
            metrics.observe(bad, 0.1)

    @pytest.mark.parametrize("bad", ['quo"te', "new\nline", 123])
    def test_malformed_route_labels_are_rejected(self, bad):
        metrics = Metrics()
        with pytest.raises(ValueError):
            metrics.observe_request(bad, 200, 0.01)

    def test_escape_label_value_neutralizes_hostile_paths(self):
        hostile = '/x"} 1\nblaeu_requests_total{route="/pwned'
        escaped = escape_label_value(hostile)
        assert "\n" not in escaped
        assert '"' not in escaped.replace('\\"', "")
        metrics = Metrics()
        metrics.observe_request(escaped, 200, 0.01)  # now accepted
        assert scraped(metrics, "blaeu_requests_total", route=escaped) == 1
        assert escape_label_value("a\\b") == "a\\\\b"


class TestNamedInstruments:
    def test_named_histogram_records_and_renders(self):
        metrics = Metrics()
        metrics.observe("blaeu_pipeline_stage_seconds_sample", 0.004)
        metrics.observe("blaeu_pipeline_stage_seconds_sample", 0.2)
        text = metrics.render()
        assert "# TYPE blaeu_pipeline_stage_seconds_sample histogram" in text
        assert 'blaeu_pipeline_stage_seconds_sample_bucket{le="+Inf"} 2' in text
        assert "blaeu_pipeline_stage_seconds_sample_count 2" in text

    def test_counters_and_gauges_render_alongside(self):
        metrics = Metrics()
        metrics.increment("blaeu_store_scans_total", 3)
        metrics.set_gauge("blaeu_pool_in_flight", 2)
        text = metrics.render()
        assert "blaeu_store_scans_total 3" in text
        assert "blaeu_pool_in_flight 2" in text

    def test_labeled_counter_series_share_one_type_line(self):
        metrics = Metrics()
        for _ in range(2):
            metrics.increment_labeled("blaeu_cache_hits_total", {"tier": "l1"})
        metrics.increment_labeled("blaeu_cache_hits_total", {"tier": "l2"})
        assert scraped(metrics, "blaeu_cache_hits_total", tier="l1") == 2
        assert scraped(metrics, "blaeu_cache_hits_total", tier="l2") == 1
        assert scraped(metrics, "blaeu_cache_hits_total", tier="l3") == 0
        assert scraped(metrics, "blaeu_cache_hits_total") == 3
        text = metrics.render()
        assert text.count("# TYPE blaeu_cache_hits_total counter") == 1
        assert 'blaeu_cache_hits_total{tier="l1"} 2' in text
        assert 'blaeu_cache_hits_total{tier="l2"} 1' in text

    def test_labeled_counter_rejects_bad_labels(self):
        metrics = Metrics()
        with pytest.raises(ValueError):
            metrics.increment_labeled("blaeu_cache_hits_total", {})
        with pytest.raises(ValueError):
            metrics.increment_labeled(
                "blaeu_cache_hits_total", {"bad-label": "x"}
            )
        with pytest.raises(ValueError):
            metrics.increment_labeled(
                "blaeu_cache_hits_total", {"tier": 'l1"}\ninjected'}
            )


class TestGlobalRegistry:
    def test_reset_installs_a_fresh_global(self):
        first = reset_metrics()
        first.increment("blaeu_graph_builds_total")
        assert get_metrics() is first
        second = reset_metrics()
        assert get_metrics() is second
        assert second is not first
        assert second.counter("blaeu_graph_builds_total") == 0
