"""Tests for hierarchical tracing spans and deterministic fake clocks."""

import pytest

from repro import obs
from repro.obs.registry import SPAN_HISTOGRAM_NAME, MetricsRegistry
from repro.obs.spans import SpanRecord, null_span, render_trace

from tests.conftest import instrument


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    yield
    obs.disable()


class FakeClock:
    """Deterministic clock advancing a fixed step per reading."""

    def __init__(self, step=1.0):
        self.t = 0.0
        self.step = step

    def __call__(self):
        now = self.t
        self.t += self.step
        return now


class TestSpanHierarchy:
    def test_root_span_has_no_parent(self):
        reg = MetricsRegistry(clock=FakeClock())
        with reg.span("root"):
            pass
        (record,) = reg.spans()
        assert record.name == "root"
        assert record.parent is None
        assert record.depth == 0

    def test_nested_spans_record_parent_and_depth(self):
        reg = MetricsRegistry(clock=FakeClock())
        with reg.span("outer"):
            with reg.span("middle"):
                with reg.span("inner"):
                    pass
        by_name = {s.name: s for s in reg.spans()}
        assert by_name["outer"].parent is None
        assert by_name["middle"].parent == "outer"
        assert by_name["middle"].depth == 1
        assert by_name["inner"].parent == "middle"
        assert by_name["inner"].depth == 2

    def test_siblings_share_parent(self):
        reg = MetricsRegistry(clock=FakeClock())
        with reg.span("parent"):
            with reg.span("a"):
                pass
            with reg.span("b"):
                pass
        by_name = {s.name: s for s in reg.spans()}
        assert by_name["a"].parent == "parent"
        assert by_name["b"].parent == "parent"
        assert by_name["a"].depth == by_name["b"].depth == 1

    def test_spans_recorded_in_completion_order(self):
        reg = MetricsRegistry(clock=FakeClock())
        with reg.span("outer"):
            with reg.span("inner"):
                pass
        assert [s.name for s in reg.spans()] == ["inner", "outer"]

    def test_exception_still_closes_span(self):
        reg = MetricsRegistry(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with reg.span("outer"):
                with reg.span("failing"):
                    raise RuntimeError("boom")
        names = [s.name for s in reg.spans()]
        assert names == ["failing", "outer"]
        # The stack unwound fully: a new span is a root again.
        with reg.span("after"):
            pass
        assert reg.spans()[-1].parent is None


class TestDeterminism:
    def test_fake_clock_durations_are_exact(self):
        """Under an injected fake clock the trace is bit-reproducible."""

        def run():
            reg = MetricsRegistry(clock=FakeClock(step=1.0))
            with reg.span("outer"):
                with reg.span("inner"):
                    pass
            return reg.spans()

        first, second = run(), run()
        assert first == second
        by_name = {s.name: s for s in first}
        # FakeClock readings: outer start=0, inner start=1, inner end=2,
        # outer end=3 → inner duration 1.0, outer duration 3.0.  Span ids
        # count up from 1 in entry order; parent ids follow the stack.
        assert by_name["inner"] == SpanRecord("inner", "outer", 1, 1.0, 1.0, 2, 1)
        assert by_name["outer"] == SpanRecord("outer", None, 0, 0.0, 3.0, 1, None)

    def test_per_span_clock_override(self):
        reg = MetricsRegistry(clock=FakeClock(step=1.0))
        with reg.span("fast", clock=FakeClock(step=0.25)):
            pass
        (record,) = reg.spans()
        assert record.duration_s == 0.25

    def test_span_observes_duration_histogram(self):
        reg = MetricsRegistry(clock=FakeClock(step=0.5))
        with reg.span("stage"):
            pass
        h = instrument(reg, SPAN_HISTOGRAM_NAME, span="stage")
        assert h.count == 1
        assert h.sum == 0.5

    def test_trace_capacity_bounds_buffer(self):
        reg = MetricsRegistry(clock=FakeClock(), trace_capacity=3)
        for i in range(5):
            with reg.span(f"s{i}"):
                pass
        assert [s.name for s in reg.spans()] == ["s2", "s3", "s4"]

    def test_trace_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            MetricsRegistry(trace_capacity=0)


class TestNullSpanAndRender:
    def test_null_span_is_shared_singleton(self):
        assert null_span() is null_span()

    def test_facade_span_disabled_is_null(self):
        assert obs.span("anything") is null_span()

    def test_facade_span_enabled_records(self):
        obs.enable(clock=FakeClock())
        with obs.span("live"):
            pass
        assert [s.name for s in obs.get_registry().spans()] == ["live"]

    def test_render_trace_indents_by_depth(self):
        # Legacy id-less records keep their recorded depth, ordered by
        # start time (the tree reconstruction needs span ids).
        spans = [
            SpanRecord("inner", "outer", 1, 1.0, 0.002),
            SpanRecord("outer", None, 0, 0.0, 0.004),
        ]
        text = render_trace(spans)
        assert text == "outer  4.000 ms\n  inner  2.000 ms"

    def test_render_trace_empty(self):
        assert render_trace([]) == ""
