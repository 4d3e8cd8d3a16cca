"""Tests for the fixed-capacity time-series recorder (fake clocks, no sleeps)."""

import threading

import pytest

from repro import obs
from repro.obs import InstrumentSpec
from repro.obs.registry import MetricsRegistry
from repro.obs.timeseries import (
    InstrumentSeries,
    MetricsRecorder,
    SeriesPoint,
    render_top,
)


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    yield
    obs.disable()


class ManualClock:
    """Clock a test advances explicitly."""

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
    # Recorder inherits the registry's manual clock.
    return MetricsRecorder(registry)


class TestSampling:
    def test_timestamps_come_from_registry_clock(self, registry, recorder, clock):
        registry.get(InstrumentSpec.counter("c")).inc()
        clock.t = 5.0
        assert recorder.sample() == 5.0
        (series,) = recorder.all_series()
        assert series.points() == [SeriesPoint(5.0, 1.0)]

    def test_counter_and_gauge_values(self, registry, recorder, clock):
        c = registry.get(InstrumentSpec.counter("hits"))
        g = registry.get(InstrumentSpec.gauge("depth"))
        c.inc(3)
        g.set(7.0)
        recorder.sample()
        clock.t = 1.0
        c.inc(2)
        g.set(4.0)
        recorder.sample()
        assert [p.value for p in recorder.series("hits").points()] == [3.0, 5.0]
        assert [p.value for p in recorder.series("depth").points()] == [7.0, 4.0]

    def test_histogram_samples_carry_cumulative_buckets(self, registry, recorder):
        h = registry.get(InstrumentSpec.histogram("lat", buckets=(0.1, 1.0)))
        h.observe(0.05)
        h.observe(0.5)
        recorder.sample()
        series = recorder.series("lat")
        (point,) = series.points()
        assert point.value == 2.0  # histogram count
        assert point.sum == pytest.approx(0.55)
        assert point.cumulative == (1, 2, 2)
        assert series.bounds == (0.1, 1.0)

    def test_labelled_instruments_get_distinct_series(self, registry, recorder):
        registry.get(InstrumentSpec.counter("runs", stage="pca")).inc()
        registry.get(InstrumentSpec.counter("runs", stage="knn")).inc(2)
        recorder.sample()
        assert recorder.series("runs", stage="pca").last() == 1.0
        assert recorder.series("runs", stage="knn").last() == 2.0
        assert recorder.series("runs") is None

    def test_samples_taken_counts_scrapes(self, recorder):
        assert recorder.samples_taken == 0
        recorder.sample()
        recorder.sample()
        assert recorder.samples_taken == 2

    def test_clear_drops_series(self, registry, recorder):
        registry.get(InstrumentSpec.counter("c")).inc()
        recorder.sample()
        recorder.clear()
        assert recorder.all_series() == []
        assert recorder.samples_taken == 0

    def test_interval_must_be_positive(self, registry):
        with pytest.raises(ValueError):
            MetricsRecorder(registry, interval_s=0.0)


class TestRingCapacity:
    def test_ring_evicts_oldest(self, registry, clock):
        recorder = MetricsRecorder(registry, capacity=3)
        c = registry.get(InstrumentSpec.counter("c"))
        for i in range(5):
            clock.t = float(i)
            c.inc()
            recorder.sample()
        series = recorder.series("c")
        assert len(series) == 3
        assert [p.t_s for p in series.points()] == [2.0, 3.0, 4.0]

    def test_capacity_below_two_rejected(self):
        with pytest.raises(ValueError):
            InstrumentSeries("counter", "c", (), capacity=1)


class TestWindowedStats:
    def fill(self, registry, recorder, clock, values):
        g = registry.get(InstrumentSpec.gauge("g"))
        for t, v in values:
            clock.t = t
            g.set(v)
            recorder.sample()

    def test_last_min_max_over_window(self, registry, recorder, clock):
        self.fill(registry, recorder, clock, [(0.0, 9.0), (10.0, 1.0), (20.0, 5.0)])
        series = recorder.series("g")
        assert series.last() == 5.0
        # Full history.
        assert series.minimum() == 1.0
        assert series.maximum() == 9.0
        # 10-second window anchored at the newest sample excludes t=0.
        assert series.minimum(10.0) == 1.0
        assert series.maximum(10.0) == 5.0
        # Explicit now shifts the window.
        assert series.maximum(5.0, now=10.0) == 1.0

    def test_empty_series_stats_are_none(self):
        series = InstrumentSeries("gauge", "g", ())
        assert series.last() is None
        assert series.minimum() is None
        assert series.maximum() is None
        assert series.rate() is None

    def test_rate_is_delta_over_time(self, registry, recorder, clock):
        c = registry.get(InstrumentSpec.counter("c"))
        clock.t = 0.0
        recorder.sample()
        clock.t = 10.0
        c.inc(50)
        recorder.sample()
        assert recorder.series("c").rate() == pytest.approx(5.0)

    def test_rate_needs_two_points_spanning_time(self, registry, recorder, clock):
        c = registry.get(InstrumentSpec.counter("c"))
        c.inc()
        recorder.sample()
        assert recorder.series("c").rate() is None  # single point
        recorder.sample()  # same timestamp: dt == 0
        assert recorder.series("c").rate() is None

    def test_windowed_quantile_subtracts_old_snapshot(self, registry, recorder, clock):
        h = registry.get(InstrumentSpec.histogram("lat", buckets=(0.1, 1.0, 10.0)))
        # Old traffic: slow observations.
        for _ in range(100):
            h.observe(5.0)
        clock.t = 0.0
        recorder.sample()
        series = recorder.series("lat")
        # Single snapshot: the lifetime distribution (all slow).
        assert series.quantile(0.99) > 1.0
        # Recent traffic: fast observations.
        for _ in range(100):
            h.observe(0.05)
        clock.t = 100.0
        recorder.sample()
        # Two snapshots: newest minus oldest cumulative counts — the old
        # slow population is subtracted out, leaving only fast traffic.
        assert series.quantile(0.99) <= 0.1
        assert series.quantile(0.99, window_s=150.0) <= 0.1

    def test_quantile_none_for_non_histogram_or_empty_window(self, registry, recorder, clock):
        registry.get(InstrumentSpec.counter("c")).inc()
        h = registry.get(InstrumentSpec.histogram("lat", buckets=(1.0,)))
        recorder.sample()
        assert recorder.series("c").quantile(0.5) is None
        # Histogram with zero in-window observations.
        assert recorder.series("lat").quantile(0.5) is None
        h.observe(0.5)
        clock.t = 10.0
        recorder.sample()
        assert recorder.series("lat").quantile(0.5) is not None


class TestSeriesMatching:
    def test_label_superset_matching(self, registry, recorder):
        registry.get(InstrumentSpec.histogram("lat", stage="pca")).observe(0.1)
        registry.get(InstrumentSpec.histogram("lat", stage="knn")).observe(0.2)
        registry.get(InstrumentSpec.histogram("other")).observe(0.3)
        recorder.sample()
        all_lat = recorder.series_matching("lat")
        assert sorted(s.labels for s in all_lat) == [
            (("stage", "knn"),),
            (("stage", "pca"),),
        ]
        only_pca = recorder.series_matching("lat", stage="pca")
        assert [s.labels for s in only_pca] == [(("stage", "pca"),)]
        assert recorder.series_matching("lat", stage="nope") == []


class TestBackgroundThread:
    def test_start_stop_idempotent(self, recorder):
        assert not recorder.running
        recorder.start()
        recorder.start()
        assert recorder.running
        recorder.stop()
        recorder.stop()
        assert not recorder.running

    def test_background_thread_scrapes(self, registry):
        # The only sleep-adjacent test: a tiny interval and a stop() that
        # joins, bounding the wait to the first scrape.
        recorder = MetricsRecorder(registry, interval_s=0.005)
        registry.get(InstrumentSpec.counter("c")).inc()
        recorder.start()
        try:
            deadline = 200
            while recorder.samples_taken == 0 and deadline:
                deadline -= 1
                recorder._stop.wait(0.005)
        finally:
            recorder.stop()
        assert recorder.samples_taken > 0
        assert recorder.series("c").last() == 1.0


class TestRenderTop:
    def test_empty_recorder(self, recorder):
        assert render_top(recorder) == "(no series recorded)"

    def test_table_has_all_series_and_columns(self, registry, recorder, clock):
        registry.get(InstrumentSpec.counter("hits", node="a")).inc(4)
        registry.get(InstrumentSpec.gauge("depth")).set(2.0)
        h = registry.get(InstrumentSpec.histogram("lat", buckets=(0.1, 1.0)))
        h.observe(0.05)
        recorder.sample()
        clock.t = 2.0
        registry.get(InstrumentSpec.counter("hits", node="a")).inc(4)
        recorder.sample()
        text = render_top(recorder, window_s=60.0)
        lines = text.splitlines()
        assert lines[0].split() == [
            "METRIC", "KIND", "LAST", "MIN", "MAX", "RATE/s", "P50", "P99",
        ]
        assert any(line.startswith("hits{node=a}") for line in lines)
        assert any(line.startswith("depth") for line in lines)
        hits_line = next(line for line in lines if line.startswith("hits"))
        assert "2" in hits_line.split()  # rate: +4 over 2 s


class TestConcurrentStop:
    def test_stop_joins_outside_the_lock(self, registry):
        # The loop's sample() takes the recorder lock; stop() must join
        # the thread without holding it, or this would deadlock against
        # an in-flight scrape.  Bound the whole check with a watchdog.
        recorder = MetricsRecorder(registry, interval_s=0.001)
        registry.get(InstrumentSpec.counter("c")).inc()
        recorder.start()
        done = threading.Event()

        def closer():
            recorder.stop()
            done.set()

        threading.Thread(target=closer, daemon=True).start()
        assert done.wait(10.0), "stop() deadlocked against the sampling loop"
        assert not recorder.running

    def test_concurrent_stop_is_safe(self, registry):
        recorder = MetricsRecorder(registry, interval_s=0.001).start()
        barrier = threading.Barrier(3, timeout=10.0)

        def closer():
            barrier.wait()
            recorder.stop()

        threads = [threading.Thread(target=closer) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
        assert not any(t.is_alive() for t in threads)
        assert not recorder.running
        recorder.start()  # still restartable after a racy stop
        recorder.stop()
