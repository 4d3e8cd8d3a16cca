"""Tests for the repro.obs metrics registry and facade."""

import math
import threading

import pytest

from repro import obs
from repro.obs import InstrumentSpec
from repro.obs.events import DEFAULT_EVENT_CAPACITY
from repro.obs.registry import (
    DEFAULT_TRACE_CAPACITY,
    EVENT_CAPACITY_ENV,
    TRACE_CAPACITY_ENV,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    histogram_quantile,
)

from tests.conftest import instrument


@pytest.fixture(autouse=True)
def _obs_off():
    """Every test starts and ends with observability disabled."""
    obs.disable()
    yield
    obs.disable()


class TestInstruments:
    def test_counter_increments(self):
        c = Counter("events")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        c = Counter("events")
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_gauge_moves_both_ways(self):
        g = Gauge("active")
        g.set(10.0)
        g.inc(5.0)
        g.dec(3.0)
        assert g.value == 12.0

    def test_histogram_buckets_cumulative(self):
        h = Histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        bounds, cumulative, total, count = h.snapshot()
        assert bounds == (0.1, 1.0, 10.0)
        assert cumulative == (1, 3, 4, 5)  # le 0.1, 1.0, 10.0, +Inf
        assert count == 5
        assert total == pytest.approx(56.05)

    def test_histogram_boundary_lands_in_bucket(self):
        """An observation equal to a bound counts into that bucket (le)."""
        h = Histogram("lat", buckets=(1.0,))
        h.observe(1.0)
        _, cumulative, _, _ = h.snapshot()
        assert cumulative == (1, 1)

    def test_histogram_validates_buckets(self):
        with pytest.raises(ValueError):
            Histogram("lat", buckets=())
        with pytest.raises(ValueError):
            Histogram("lat", buckets=(1.0, 0.5))


class TestHistogramQuantile:
    def test_empty_histogram_is_nan(self):
        h = Histogram("lat", buckets=(1.0,))
        assert math.isnan(h.quantile(0.5))
        assert math.isnan(histogram_quantile((1.0,), (0, 0), 0.5))

    def test_single_bucket_interpolates_from_zero(self):
        h = Histogram("lat", buckets=(10.0,))
        h.observe(3.0)  # exact position inside the bucket is unknown
        # p50 of one observation in [0, 10] interpolates to the midpoint.
        assert h.quantile(0.5) == pytest.approx(5.0)
        assert h.quantile(1.0) == pytest.approx(10.0)

    def test_interpolation_between_bounds(self):
        # 100 observations uniformly into (1.0, 2.0]: cumulative (0, 100, 100).
        assert histogram_quantile((1.0, 2.0), (0, 100, 100), 0.5) == pytest.approx(1.5)
        assert histogram_quantile((1.0, 2.0), (0, 100, 100), 0.9) == pytest.approx(1.9)

    def test_quantile_in_inf_bucket_clamps_to_highest_bound(self):
        h = Histogram("lat", buckets=(0.1, 1.0))
        h.observe(50.0)  # lands beyond the last finite bound
        assert h.quantile(0.99) == 1.0

    def test_extreme_quantiles(self):
        cumulative = (10, 20, 20)
        assert histogram_quantile((1.0, 2.0), cumulative, 0.0) == pytest.approx(0.0)
        assert histogram_quantile((1.0, 2.0), cumulative, 1.0) == pytest.approx(2.0)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="quantile"):
            histogram_quantile((1.0,), (0, 0), 1.5)
        with pytest.raises(ValueError, match="one longer"):
            histogram_quantile((1.0,), (0, 0, 0), 0.5)

    def test_skips_empty_leading_buckets(self):
        # All mass in the last finite bucket; empty buckets before it
        # must not capture the quantile.
        assert histogram_quantile((0.1, 1.0, 10.0), (0, 0, 5, 5), 0.5) == pytest.approx(5.5)


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = InstrumentSpec.counter("a", x="1")
        assert reg.get(a) is reg.get(InstrumentSpec.counter("a", x="1"))

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        assert reg.get(InstrumentSpec.counter("a", x="1", y="2")) is reg.get(
            InstrumentSpec.counter("a", y="2", x="1")
        )

    def test_distinct_labels_are_distinct_instruments(self):
        reg = MetricsRegistry()
        a = reg.get(InstrumentSpec.counter("a", node="VM1"))
        b = reg.get(InstrumentSpec.counter("a", node="VM2"))
        assert a is not b
        a.inc()
        assert b.value == 0.0

    def test_kind_mismatch_raises_type_error(self):
        reg = MetricsRegistry()
        reg.get(InstrumentSpec.counter("x"))
        with pytest.raises(TypeError):
            reg.get(InstrumentSpec.gauge("x"))
        with pytest.raises(TypeError):
            reg.get(InstrumentSpec.histogram("x"))
        reg.get(InstrumentSpec.gauge("y"))
        with pytest.raises(TypeError):
            reg.get(InstrumentSpec.counter("y"))

    def test_instruments_sorted(self):
        reg = MetricsRegistry()
        reg.get(InstrumentSpec.counter("b"))
        reg.get(InstrumentSpec.counter("a", node="VM2"))
        reg.get(InstrumentSpec.counter("a", node="VM1"))
        names = [(i.name, i.labels) for i in reg.instruments()]
        assert names == sorted(names)

    def test_reset_drops_everything(self):
        reg = MetricsRegistry(clock=lambda: 0.0)
        reg.get(InstrumentSpec.counter("a")).inc()
        with reg.span("s"):
            pass
        reg.reset()
        assert reg.instruments() == []
        assert reg.spans() == []

    def test_counter_thread_safety_exact_count(self):
        """Concurrent increments never lose updates."""
        reg = MetricsRegistry()
        c = reg.get(InstrumentSpec.counter("threads.events"))
        per_thread, n_threads = 2000, 8
        barrier = threading.Barrier(n_threads)

        def worker():
            barrier.wait()
            for _ in range(per_thread):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == float(per_thread * n_threads)

    def test_get_or_create_thread_safety(self):
        """Racing first resolves of one instrument converge on it."""
        reg = MetricsRegistry()
        seen = []
        barrier = threading.Barrier(8)

        def worker():
            spec = InstrumentSpec.counter("race")  # one spec per thread
            barrier.wait()
            seen.append(reg.get(spec))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(c is seen[0] for c in seen)


class TestCapacities:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv(TRACE_CAPACITY_ENV, raising=False)
        monkeypatch.delenv(EVENT_CAPACITY_ENV, raising=False)
        reg = MetricsRegistry()
        assert reg.trace_capacity == DEFAULT_TRACE_CAPACITY
        assert reg.event_capacity == DEFAULT_EVENT_CAPACITY

    def test_explicit_capacities_bound_rings(self):
        reg = MetricsRegistry(clock=lambda: 0.0, trace_capacity=2, event_capacity=3)
        for i in range(5):
            with reg.span(f"s{i}"):
                pass
            reg.event(f"e{i}")
        assert [s.name for s in reg.spans()] == ["s3", "s4"]
        assert [e.name for e in reg.events()] == ["e2", "e3", "e4"]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry(trace_capacity=0)
        with pytest.raises(ValueError, match="event capacity must be positive"):
            MetricsRegistry(event_capacity=0)

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(TRACE_CAPACITY_ENV, "7")
        monkeypatch.setenv(EVENT_CAPACITY_ENV, "9")
        reg = MetricsRegistry()
        assert reg.trace_capacity == 7
        assert reg.event_capacity == 9

    def test_env_junk_ignored(self, monkeypatch):
        monkeypatch.setenv(TRACE_CAPACITY_ENV, "not-a-number")
        monkeypatch.setenv(EVENT_CAPACITY_ENV, "-5")
        reg = MetricsRegistry()
        assert reg.trace_capacity == DEFAULT_TRACE_CAPACITY
        assert reg.event_capacity == DEFAULT_EVENT_CAPACITY

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(TRACE_CAPACITY_ENV, "7")
        assert MetricsRegistry(trace_capacity=3).trace_capacity == 3

    def test_set_trace_capacity_keeps_newest(self):
        reg = MetricsRegistry(clock=lambda: 0.0)
        for i in range(4):
            with reg.span(f"s{i}"):
                pass
        reg.set_trace_capacity(2)
        assert [s.name for s in reg.spans()] == ["s2", "s3"]
        with pytest.raises(ValueError):
            reg.set_trace_capacity(0)

    def test_reset_preserves_capacities(self):
        reg = MetricsRegistry(clock=lambda: 0.0, trace_capacity=2, event_capacity=3)
        with reg.span("s"):
            pass
        reg.event("e")
        reg.reset()
        assert reg.spans() == []
        assert reg.events() == []
        assert reg.trace_capacity == 2
        assert reg.event_capacity == 3
        for i in range(5):
            with reg.span(f"s{i}"):
                pass
            reg.event(f"e{i}")
        assert len(reg.spans()) == 2  # the rings are still bounded
        assert [e.name for e in reg.events()] == ["e2", "e3", "e4"]

    def test_enable_configures_and_resizes_capacities(self):
        reg = obs.enable(trace_capacity=2)
        assert reg.trace_capacity == 2
        # Already enabled: a further enable() resizes in place.
        again = obs.enable(trace_capacity=5, event_capacity=6)
        assert again is reg
        assert reg.trace_capacity == 5
        assert reg.event_capacity == 6


class TestSpanIds:
    def test_ids_are_monotone_from_one(self):
        reg = MetricsRegistry(clock=lambda: 0.0)
        with reg.span("a"):
            pass
        with reg.span("b"):
            pass
        ids = [s.span_id for s in reg.spans()]
        assert ids == [1, 2]

    def test_parent_id_threads_through_nesting(self):
        reg = MetricsRegistry(clock=lambda: 0.0)
        with reg.span("outer"):
            with reg.span("inner"):
                pass
        by_name = {s.name: s for s in reg.spans()}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id is None

    def test_current_span_id_tracks_stack(self):
        reg = MetricsRegistry(clock=lambda: 0.0)
        assert reg.current_span_id() is None
        with reg.span("a"):
            outer = reg.current_span_id()
            assert outer is not None
            with reg.span("b"):
                assert reg.current_span_id() == outer + 1
            assert reg.current_span_id() == outer
        assert reg.current_span_id() is None

    def test_null_registry_has_no_span_id(self):
        assert NullRegistry().current_span_id() is None


class TestNullRegistry:
    def test_null_instruments_are_shared_noops(self):
        reg = NullRegistry()
        c = reg.get(InstrumentSpec.counter("a"))
        assert c is reg.get(InstrumentSpec.counter("b", any="label"))
        c.inc()
        assert c.value == 0.0
        g = reg.get(InstrumentSpec.gauge("g"))
        g.set(5.0)
        g.inc()
        g.dec()
        assert g.value == 0.0
        h = reg.get(InstrumentSpec.histogram("h"))
        h.observe(1.0)
        assert h.count == 0
        assert reg.instruments() == []
        assert reg.spans() == []
        reg.reset()  # harmless

    def test_null_span_never_reads_clock(self):
        calls = []

        def clock():
            calls.append(1)
            return 0.0

        reg = NullRegistry()
        with reg.span("s", clock=clock):
            pass
        assert calls == []


class TestFacade:
    def test_disabled_by_default_in_tests(self):
        assert not obs.enabled()
        assert isinstance(obs.get_registry(), NullRegistry)

    def test_enable_swaps_live_registry(self):
        reg = obs.enable()
        assert obs.enabled()
        assert isinstance(reg, MetricsRegistry)
        assert obs.get_registry() is reg
        obs.get(InstrumentSpec.counter("facade.events")).inc()
        assert instrument(reg, "facade.events").value == 1.0

    def test_enable_is_idempotent_and_keeps_data(self):
        reg = obs.enable()
        obs.get(InstrumentSpec.counter("kept")).inc()
        again = obs.enable()
        assert again is reg
        assert instrument(again, "kept").value == 1.0

    def test_enable_can_replace_clock(self):
        obs.enable()
        fake = lambda: 42.0  # noqa: E731
        reg = obs.enable(clock=fake)
        assert reg.clock is fake

    def test_disable_reverts_to_noop(self):
        spec = InstrumentSpec.counter("gone")
        obs.enable()
        obs.get(spec).inc()
        obs.disable()
        assert not obs.enabled()
        obs.get(spec).inc()  # no-op, no error
        assert obs.get_registry().instruments() == []

    def test_reset_while_disabled_is_noop(self):
        obs.reset()
        assert not obs.enabled()
