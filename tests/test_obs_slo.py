"""Tests for declarative SLO monitor rules (deterministic, zero sleeps)."""

import pytest

from repro import obs
from repro.obs import InstrumentSpec
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import (
    RULE_KINDS,
    SloRule,
    Verdict,
    default_rules,
    evaluate,
    evaluate_rule,
    render_results,
    worst,
)
from repro.obs.timeseries import MetricsRecorder


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    yield
    obs.disable()


class ManualClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


@pytest.fixture()
def clock():
    return ManualClock()


@pytest.fixture()
def registry(clock):
    return MetricsRegistry(clock=clock)


@pytest.fixture()
def recorder(registry):
    return MetricsRecorder(registry)


def counter_rule(warn=1.0, page=10.0, **kw):
    return SloRule("drops", "counter_rate", "dropped", warn=warn, page=page, **kw)


class TestRuleValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown rule kind"):
            SloRule("r", "median", "m", warn=1.0, page=2.0)

    def test_quantile_bounds(self):
        with pytest.raises(ValueError):
            SloRule("r", "histogram_quantile", "m", warn=1.0, page=2.0, quantile=1.5)

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            SloRule("r", "counter_rate", "m", warn=1.0, page=2.0, window_s=0.0)

    def test_all_kinds_constructible(self):
        for kind in RULE_KINDS:
            SloRule("r", kind, "m", warn=1.0, page=2.0)


class TestCounterRate:
    def drive(self, registry, recorder, clock, increments):
        c = registry.get(InstrumentSpec.counter("dropped"))
        clock.t = 0.0
        recorder.sample()
        c.inc(increments)
        clock.t = 10.0
        recorder.sample()

    def test_ok_below_warn(self, registry, recorder, clock):
        self.drive(registry, recorder, clock, 5)  # 0.5/s
        result = evaluate_rule(counter_rule(), recorder)
        assert result.verdict is Verdict.OK
        assert result.value == pytest.approx(0.5)

    def test_warn_between_thresholds(self, registry, recorder, clock):
        self.drive(registry, recorder, clock, 50)  # 5/s
        result = evaluate_rule(counter_rule(), recorder)
        assert result.verdict is Verdict.WARN
        assert "warn threshold" in result.reason

    def test_page_at_or_above_page(self, registry, recorder, clock):
        self.drive(registry, recorder, clock, 100)  # 10/s
        result = evaluate_rule(counter_rule(), recorder)
        assert result.verdict is Verdict.PAGE
        assert "page threshold" in result.reason

    def test_single_sample_is_no_data(self, registry, recorder):
        registry.get(InstrumentSpec.counter("dropped")).inc(1000)
        recorder.sample()  # a rate needs two samples
        result = evaluate_rule(counter_rule(), recorder)
        assert result.verdict is Verdict.OK
        assert result.value is None
        assert result.reason == "no data in window"


class TestGaugeThreshold:
    def rule(self, **kw):
        return SloRule("depth", "gauge_threshold", "queue", warn=32.0, page=56.0, **kw)

    def test_uses_last_sampled_value(self, registry, recorder, clock):
        g = registry.get(InstrumentSpec.gauge("queue"))
        g.set(40.0)
        recorder.sample()
        g.set(10.0)
        clock.t = 1.0
        recorder.sample()
        result = evaluate_rule(self.rule(), recorder)
        assert result.verdict is Verdict.OK
        assert result.value == 10.0

    def test_page_on_high_gauge(self, registry, recorder):
        registry.get(InstrumentSpec.gauge("queue")).set(60.0)
        recorder.sample()
        assert evaluate_rule(self.rule(), recorder).verdict is Verdict.PAGE

    def test_below_rule_trips_on_low_values(self, registry, recorder):
        registry.get(InstrumentSpec.gauge("queue")).set(1.0)
        recorder.sample()
        low = SloRule(
            "starved", "gauge_threshold", "queue", warn=5.0, page=2.0, below=True
        )
        result = evaluate_rule(low, recorder)
        assert result.verdict is Verdict.PAGE
        assert "<=" in result.reason


class TestHistogramQuantile:
    def rule(self, **kw):
        return SloRule(
            "p99", "histogram_quantile", "lat", warn=0.05, page=0.5, quantile=0.99, **kw
        )

    def test_ok_fast_distribution(self, registry, recorder):
        h = registry.get(InstrumentSpec.histogram("lat", buckets=(0.01, 0.1, 1.0)))
        for _ in range(100):
            h.observe(0.005)
        recorder.sample()
        result = evaluate_rule(self.rule(), recorder)
        assert result.verdict is Verdict.OK
        assert result.value <= 0.01

    def test_page_slow_distribution(self, registry, recorder):
        h = registry.get(InstrumentSpec.histogram("lat", buckets=(0.01, 0.1, 1.0)))
        for _ in range(100):
            h.observe(0.9)
        recorder.sample()
        assert evaluate_rule(self.rule(), recorder).verdict is Verdict.PAGE


class TestLabelFanout:
    def test_worst_series_decides(self, registry, recorder):
        lat = InstrumentSpec.histogram("lat", buckets=(0.01, 0.1, 1.0))
        registry.get(lat.labelled(stage="pca")).observe(0.005)
        registry.get(lat.labelled(stage="knn")).observe(0.9)
        recorder.sample()
        rule = SloRule(
            "p99", "histogram_quantile", "lat", warn=0.05, page=0.5, quantile=0.99
        )
        result = evaluate_rule(rule, recorder)
        assert result.verdict is Verdict.PAGE  # the slow knn series wins

    def test_label_filter_narrows_candidates(self, registry, recorder):
        registry.get(InstrumentSpec.gauge("queue", pool="a")).set(60.0)
        registry.get(InstrumentSpec.gauge("queue", pool="b")).set(1.0)
        recorder.sample()
        rule = SloRule(
            "depth", "gauge_threshold", "queue", warn=32.0, page=56.0,
            labels=(("pool", "b"),),
        )
        assert evaluate_rule(rule, recorder).verdict is Verdict.OK

    def test_missing_metric_is_no_data(self, recorder):
        result = evaluate_rule(counter_rule(), recorder)
        assert result.verdict is Verdict.OK
        assert result.reason == "no data in window"


class TestEvaluateAndWorst:
    def test_results_in_rule_order(self, registry, recorder):
        registry.get(InstrumentSpec.gauge("queue")).set(60.0)
        recorder.sample()
        rules = [
            counter_rule(),
            SloRule("depth", "gauge_threshold", "queue", warn=32.0, page=56.0),
        ]
        results = evaluate(rules, recorder)
        assert [r.rule.name for r in results] == ["drops", "depth"]
        assert worst(results) is Verdict.PAGE

    def test_worst_of_empty_is_ok(self):
        assert worst([]) is Verdict.OK

    def test_verdict_ordering(self):
        assert Verdict.OK < Verdict.WARN < Verdict.PAGE


class TestDefaultRules:
    def test_pack_covers_wired_hot_paths(self):
        rules = default_rules()
        assert [r.name for r in rules] == [
            "online-drop-rate",
            "serve-queue-depth",
            "serve-overload-rate",
            "stage-p99-seconds",
            "serve-queue-wait-p99",
        ]
        assert all(r.kind in RULE_KINDS for r in rules)
        assert all(r.page >= r.warn for r in rules)

    def test_default_rules_ok_on_empty_recorder(self, recorder):
        results = evaluate(default_rules(), recorder)
        assert worst(results) is Verdict.OK


class TestRender:
    def test_render_empty(self):
        assert render_results([]) == "(no rules)"

    def test_render_table_and_overall(self, registry, recorder):
        registry.get(InstrumentSpec.gauge("queue")).set(60.0)
        recorder.sample()
        rules = [SloRule("depth", "gauge_threshold", "queue", warn=32.0, page=56.0)]
        text = render_results(evaluate(rules, recorder))
        lines = text.splitlines()
        assert lines[0].split() == ["RULE", "KIND", "METRIC", "VERDICT", "VALUE", "REASON"]
        assert "PAGE" in lines[1]
        assert lines[-1] == "overall: PAGE"
