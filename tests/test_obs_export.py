"""Tests for the Prometheus and JSON exporters."""

import json

import pytest

from repro import obs
from repro.obs import InstrumentSpec
from repro.obs.export import (
    PROMETHEUS_PREFIX,
    prometheus_name,
    registry_to_dict,
    render_json,
    render_prometheus,
)
from repro.obs.registry import MetricsRegistry, NullRegistry


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    yield
    obs.disable()


class TestPrometheusName:
    def test_dots_become_underscores_and_prefix_applied(self):
        assert prometheus_name("pipeline.snapshots") == "repro_pipeline_snapshots"

    def test_counter_gets_total_suffix(self):
        assert prometheus_name("pipeline.runs", "counter") == "repro_pipeline_runs_total"

    def test_total_suffix_not_duplicated(self):
        assert prometheus_name("x_total", "counter") == "repro_x_total"

    def test_invalid_characters_sanitized(self):
        name = prometheus_name("weird metric-name!")
        assert name.startswith(PROMETHEUS_PREFIX)
        assert " " not in name and "-" not in name and "!" not in name


class TestRenderPrometheus:
    def test_counter_line_with_header(self):
        reg = MetricsRegistry()
        reg.get(InstrumentSpec.counter("pipeline.runs", help="Pipeline invocations.")).inc(3)
        text = render_prometheus(reg)
        assert "# HELP repro_pipeline_runs_total Pipeline invocations." in text
        assert "# TYPE repro_pipeline_runs_total counter" in text
        assert "repro_pipeline_runs_total 3" in text

    def test_gauge_line(self):
        reg = MetricsRegistry()
        reg.get(InstrumentSpec.gauge("sim.active_instances")).set(4.0)
        assert "repro_sim_active_instances 4" in render_prometheus(reg)

    def test_labels_rendered_sorted_and_escaped(self):
        reg = MetricsRegistry()
        reg.get(InstrumentSpec.counter("m", node='VM"1"', zone="a")).inc()
        text = render_prometheus(reg)
        assert 'repro_m_total{node="VM\\"1\\"",zone="a"} 1' in text

    def test_histogram_cumulative_buckets_with_inf(self):
        reg = MetricsRegistry()
        h = reg.get(InstrumentSpec.histogram("lat", buckets=(0.1, 1.0)))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        text = render_prometheus(reg)
        assert 'repro_lat_bucket{le="0.1"} 1' in text
        assert 'repro_lat_bucket{le="1"} 2' in text
        assert 'repro_lat_bucket{le="+Inf"} 3' in text
        assert "repro_lat_sum 5.55" in text
        assert "repro_lat_count 3" in text

    def test_histogram_keeps_existing_labels_alongside_le(self):
        reg = MetricsRegistry()
        reg.get(InstrumentSpec.histogram("span.seconds", span="pipeline.pca")).observe(0.01)
        text = render_prometheus(reg)
        assert 'repro_span_seconds_bucket{le="0.01",span="pipeline.pca"} ' in text
        assert 'repro_span_seconds_count{span="pipeline.pca"} 1' in text

    def test_families_sorted_and_terminated(self):
        reg = MetricsRegistry()
        reg.get(InstrumentSpec.counter("zzz")).inc()
        reg.get(InstrumentSpec.counter("aaa")).inc()
        text = render_prometheus(reg)
        assert text.index("repro_aaa_total") < text.index("repro_zzz_total")
        assert text.endswith("\n")

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""
        assert render_prometheus(NullRegistry()) == ""

    def test_headers_once_per_family_across_label_sets(self):
        """HELP/TYPE must appear exactly once even with many label sets."""
        reg = MetricsRegistry()
        for node in ("VM1", "VM2", "VM3"):
            spec = InstrumentSpec.counter("gmond.announcements", help="Announcements.", node=node)
            reg.get(spec).inc()
        text = render_prometheus(reg)
        assert text.count("# HELP repro_gmond_announcements_total") == 1
        assert text.count("# TYPE repro_gmond_announcements_total") == 1
        for node in ("VM1", "VM2", "VM3"):
            assert f'repro_gmond_announcements_total{{node="{node}"}} 1' in text

    def test_first_nonempty_help_wins(self):
        reg = MetricsRegistry()
        reg.get(InstrumentSpec.counter("m", node="a")).inc()  # registered first, no help
        reg.get(InstrumentSpec.counter("m", help="Real help.", node="b")).inc()
        text = render_prometheus(reg)
        assert "# HELP repro_m_total Real help." in text
        assert text.count("# HELP repro_m_total") == 1

    def test_help_text_escaped(self):
        reg = MetricsRegistry()
        reg.get(InstrumentSpec.counter("m", help="line one\nback\\slash")).inc()
        text = render_prometheus(reg)
        assert "# HELP repro_m_total line one\\nback\\\\slash" in text

    def test_every_render_ends_with_newline(self):
        reg = MetricsRegistry()
        reg.get(InstrumentSpec.histogram("lat", buckets=(1.0,))).observe(0.5)
        reg.get(InstrumentSpec.gauge("g")).set(1.0)
        text = render_prometheus(reg)
        assert text.endswith("\n")
        assert not text.endswith("\n\n")


class TestJsonExport:
    def test_round_trips_through_json(self):
        reg = MetricsRegistry(clock=iter(range(100)).__next__)
        reg.get(InstrumentSpec.counter("c", node="VM1")).inc(2)
        reg.get(InstrumentSpec.gauge("g")).set(1.5)
        reg.get(InstrumentSpec.histogram("h", buckets=(1.0,))).observe(0.5)
        with reg.span("s"):
            pass
        parsed = json.loads(render_json(reg))
        assert parsed == registry_to_dict(reg)
        assert parsed["enabled"] is True
        assert parsed["counters"] == [{"name": "c", "labels": {"node": "VM1"}, "value": 2.0}]
        assert parsed["gauges"] == [{"name": "g", "labels": {}, "value": 1.5}]
        (hist,) = [h for h in parsed["histograms"] if h["name"] == "h"]
        assert hist["buckets"] == [1.0]
        assert hist["cumulative_counts"] == [1, 1]
        assert hist["count"] == 1
        (span,) = parsed["spans"]
        assert span["name"] == "s"
        assert span["parent"] is None
        assert span["duration_s"] == 1.0

    def test_spans_carry_ids(self):
        reg = MetricsRegistry(clock=iter(range(100)).__next__)
        with reg.span("outer"):
            with reg.span("inner"):
                pass
        spans = {s["name"]: s for s in registry_to_dict(reg)["spans"]}
        assert spans["outer"]["span_id"] == 1
        assert spans["outer"]["parent_id"] is None
        assert spans["inner"]["parent_id"] == 1

    def test_events_included(self):
        reg = MetricsRegistry(clock=iter(range(100)).__next__)
        with reg.span("s"):
            reg.event("cache.evicted", seed="3")
        (event,) = registry_to_dict(reg)["events"]
        assert event["name"] == "cache.evicted"
        assert event["fields"] == {"seed": "3"}
        assert event["span_id"] == 1

    def test_null_registry_dict_is_empty(self):
        d = registry_to_dict(NullRegistry())
        assert d["enabled"] is False
        assert d["counters"] == d["gauges"] == d["histograms"] == d["spans"] == []
        assert d["events"] == []
