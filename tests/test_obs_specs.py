"""Declared instruments: ``InstrumentSpec``, ``registry.get`` and the hot paths built on them.

Every instrumented hot path resolves module-level specs through the
active registry, so a ``reset()`` or a ``disable()``/``enable()`` swap
needs no cooperation from the call site: the next observation lands in
the live registry and nothing more reaches the old one.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.core.online import OnlineClassifier
from repro.core.pipeline import ApplicationClassifier
from repro.ingest import IngestPlane
from repro.metrics.catalog import NUM_METRICS
from repro.monitoring.multicast import MetricAnnouncement, MulticastChannel
from repro.obs.context import PIPELINE_STAGE_NAMES
from repro.obs.registry import MetricsRegistry, NullRegistry
from repro.obs.spec import InstrumentSpec, LabelledSpecs
from repro.serve.batch import BatchClassifier
from repro.serve.service import ClassificationService

from tests.conftest import instrument
from tests.test_core_pipeline import synthetic_series, synthetic_training


@pytest.fixture(autouse=True)
def obs_off_afterwards():
    yield
    obs.disable()


@pytest.fixture(scope="module")
def trained():
    return ApplicationClassifier().train(synthetic_training())


class TestInstrumentSpec:
    def test_constructors_normalize_labels(self):
        spec = InstrumentSpec.counter("c", "help", b="2", a="1")
        assert (spec.kind, spec.name, spec.help) == ("counter", "c", "help")
        assert spec.labels == (("a", "1"), ("b", "2"))
        hist = InstrumentSpec.histogram("h", buckets=[1, 2])
        assert hist.buckets == (1, 2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown instrument kind"):
            InstrumentSpec("summary", "x")

    def test_specs_are_immutable_and_compare_by_identity(self):
        a, b = InstrumentSpec.counter("c"), InstrumentSpec.counter("c")
        assert a != b and a == a
        with pytest.raises(AttributeError):
            a.name = "d"

    def test_labelled_adds_labels(self):
        spec = InstrumentSpec.gauge("g", node="n1").labelled(zone="z")
        assert spec.labels == (("node", "n1"), ("zone", "z"))

    def test_family_label_sets_follow_value_order(self):
        spec = InstrumentSpec.histogram("h", family=("stage", ("b", "a")), fixed="f")
        assert spec.label_sets() == (
            (("fixed", "f"), ("stage", "b")),
            (("fixed", "f"), ("stage", "a")),
        )

    def test_labelled_specs_make_one_spec_per_value(self):
        specs = LabelledSpecs(InstrumentSpec.counter("c", "h"), "node")
        assert specs["a"] is specs["a"]
        assert specs["a"] is not specs["b"]
        assert specs["b"].labels == (("node", "b"),)
        assert specs["b"].help == "h"


class TestRegistryGet:
    def test_get_shares_the_facade_instrument(self):
        registry = obs.enable()
        spec = InstrumentSpec.counter("c", "Some count.", reason="x")
        registry.get(spec).inc(2)
        assert registry.get(spec) is obs.get(spec) is instrument(registry, "c", reason="x")
        assert instrument(registry, "c", reason="x").value == 2.0
        assert instrument(registry, "c", reason="x").help == "Some count."

    def test_instruments_appear_only_once_resolved(self):
        registry = MetricsRegistry()
        spec = InstrumentSpec.histogram("h", buckets=(1.0, 2.0))
        assert registry.instruments() == []
        registry.get(spec).observe(1.5)
        (hist,) = registry.instruments()
        assert (hist.name, hist.buckets, hist.count) == ("h", (1.0, 2.0), 1)

    def test_family_resolves_to_one_handle_per_value(self):
        registry = MetricsRegistry()
        spec = InstrumentSpec.histogram("h", family=("stage", ("x", "y")))
        x, y = registry.get(spec)
        assert registry.get(spec) == (x, y)
        assert x is instrument(registry, "h", stage="x")
        assert y is instrument(registry, "h", stage="y")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.get(InstrumentSpec.counter("m"))
        with pytest.raises(TypeError, match="registered as a counter, not a gauge"):
            registry.get(InstrumentSpec.gauge("m"))
        with pytest.raises(TypeError, match="registered as a counter, not a histogram"):
            registry.get(InstrumentSpec.histogram("m"))

    def test_reset_drops_every_handle(self):
        registry = MetricsRegistry()
        spec = InstrumentSpec.counter("c")
        old = registry.get(spec)
        old.inc()
        registry.reset()
        assert registry.instruments() == []
        fresh = registry.get(spec)
        assert fresh is not old
        fresh.inc()
        assert instrument(registry, "c").value == 1.0

    def test_null_registry_hands_out_the_shared_no_ops(self):
        null = NullRegistry()
        counter = null.get(InstrumentSpec.counter("c"))
        assert counter is null.get(InstrumentSpec.counter("other", any="label"))
        assert counter.kind == "counter"
        assert null.get(InstrumentSpec.gauge("g")).kind == "gauge"
        family = null.get(InstrumentSpec.histogram("h", family=("s", ("a", "b", "c"))))
        assert family == (null.get(InstrumentSpec.histogram("h")),) * 3
        assert family[0].kind == "histogram"

    def test_facade_follows_the_active_registry(self):
        spec = InstrumentSpec.counter("facade.c")
        obs.get(spec).inc()  # disabled: a no-op
        registry = obs.enable()
        obs.get(spec).inc()
        assert instrument(registry, "facade.c").value == 1.0


def exported(registry, names) -> dict:
    """``{(name, labels): value or count}`` of the exported instruments whose name is in *names*."""
    dump = obs.registry_to_dict(registry)
    out = {}
    for kind, field in (("counters", "value"), ("gauges", "value"), ("histograms", "count")):
        for row in dump[kind]:
            if row["name"] in names:
                out[(row["name"], tuple(sorted(row["labels"].items())))] = row[field]
    return out


def settled(registry, names, want, timeout=10.0) -> dict:
    """The export once it equals *want* (a service worker records after resolving futures)."""
    deadline = time.monotonic() + timeout
    got = exported(registry, names)
    while got != want and time.monotonic() < deadline:
        time.sleep(0.005)
        got = exported(registry, names)
    return got


def classify_series_path(clf):
    series = synthetic_series("cpu", m=40, seed=50)
    want = {("pipeline.runs", ()): 1.0, ("pipeline.snapshots", ()): 40.0}
    for stage in PIPELINE_STAGE_NAMES:
        want[("pipeline.stage.seconds", (("stage", stage),))] = 1
    return (lambda: clf.classify_series(series)), want, None


def classify_batch_path(clf):
    batch = BatchClassifier(clf)
    series = [synthetic_series("io", m=30, seed=51), synthetic_series("net", m=20, seed=52)]
    want = {("serve.batch.runs", ()): 2.0, ("serve.batch.snapshots", ()): 50.0}
    return (lambda: batch.classify_batch(series)), want, None


def online_push_path(clf):
    channel = MulticastChannel()
    OnlineClassifier(clf, channel, nodes=["a"])
    values = synthetic_series("cpu", m=3, seed=53).matrix.T
    ticks = itertools.count(1)

    def run():
        for node in ("a", "a", "a", "b"):
            channel.announce(MetricAnnouncement(node, float(next(ticks)), values[0]))

    want = {
        ("online.announcements.classified", ()): 3.0,
        ("online.announcements.dropped", ()): 1.0,
        ("online.announcement.seconds", ()): 3,
    }
    return run, want, None


def online_pump_path(clf):
    plane = IngestPlane()
    online = OnlineClassifier(clf, plane, nodes=["a"])
    values = synthetic_series("mem", m=1, seed=54).matrix[:, 0]
    ticks = itertools.count(1)

    def run():
        for node in ("a", "b", "a", "b", "a"):
            plane.push(node, float(next(ticks)), values)
        online.pump(flush=True)

    want = {
        ("online.announcements.classified", ()): 3.0,
        ("online.announcements.dropped", ()): 2.0,
        ("online.batch.seconds", ()): 1,
    }
    return run, want, None


def service_path(clf):
    service = ClassificationService(clf, batch_size=4, max_wait_s=0.0)
    good = synthetic_series("idle", m=10, seed=55)
    bad = synthetic_series("idle", m=10, seed=56)
    bad.matrix[0, 0] = np.nan

    def run():
        service.submit(good).result(timeout=10)
        service.submit(good).result(timeout=10)
        assert isinstance(service.submit(bad).exception(timeout=10), ValueError)

    want = {
        ("serve.requests.completed", ()): 2.0,
        ("serve.requests.failed", ()): 1.0,
        ("serve.request.seconds", ()): 2,
        ("serve.batch.size", ()): 3,
    }
    return run, want, service.shutdown


HOT_PATHS = {
    "classify_series": classify_series_path,
    "classify_batch": classify_batch_path,
    "online_push": online_push_path,
    "online_pump": online_pump_path,
    "service": service_path,
}


class TestHotPathsFollowTheLiveRegistry:
    """The pattern of ``TestCachedInstruments`` in ``test_ingest_plane.py``, for every hot path."""

    @pytest.mark.parametrize("path", sorted(HOT_PATHS))
    def test_counts_survive_a_reset_and_a_swap(self, trained, path):
        run, want, close = HOT_PATHS[path](trained)
        names = {name for name, _labels in want}
        try:
            registry = obs.enable()
            run()
            assert settled(registry, names, want) == want
            obs.reset()  # same registry, every handle dropped
            run()
            assert settled(registry, names, want) == want
            obs.disable()
            swapped = obs.enable()  # a new registry
            assert swapped is not registry
            run()
            assert settled(swapped, names, want) == want
            assert exported(registry, names) == want  # nothing more in the old one
        finally:
            obs.disable()
            if close is not None:
                close()


class TestResetRacesFirstResolves:
    """``reset()`` racing first resolves leaves no handle outside the registry."""

    RUN_S = 0.4

    def test_one_more_observation_of_each_instrument_is_exported(self, trained):
        series = synthetic_series("cpu", m=8, seed=60)
        batch = BatchClassifier(trained)
        values = np.ones(NUM_METRICS)

        def plane_job():
            plane = IngestPlane()
            ticks = itertools.count(1)

            def step():
                plane.push("a", float(next(ticks)), values)
                plane.drain(flush=True)

            return step

        def obs_job():
            def step():
                obs.event("race.event")
                with obs.span("race.span"):
                    pass

            return step

        jobs = [
            lambda: (lambda: trained.classify_series(series)),
            lambda: (lambda: batch.classify_batch([series])),
            plane_job,
            obs_job,
        ]
        registry = obs.enable()
        stop = threading.Event()
        failures: list[BaseException] = []

        def worker(job):
            step = job()
            try:
                while not stop.is_set():
                    step()
            except Exception as exc:  # surfaced by the assertion below
                failures.append(exc)

        def resetter():
            try:
                while not stop.is_set():
                    registry.reset()
                    time.sleep(0)
            except Exception as exc:  # surfaced by the assertion below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(job,), daemon=True) for job in jobs]
            threads.append(threading.Thread(target=resetter, daemon=True))
            for thread in threads:
                thread.start()
            time.sleep(self.RUN_S)
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

        # Quiet now: one more observation of each instrument must be exported.
        registry.reset()
        for job in jobs:
            job()()
        want = {
            ("pipeline.runs", ()): 1.0,
            ("pipeline.snapshots", ()): 8.0,
            ("serve.batch.runs", ()): 1.0,
            ("ingest.announcements.received", ()): 1.0,
            ("ingest.drain.rows", ()): 1,
            ("ingest.ring.occupancy", (("node", "a"),)): 0.0,
            ("obs.events", (("event", "race.event"),)): 1.0,
            ("span.seconds", (("span", "race.span"),)): 1,
            ("span.seconds", (("span", "pipeline.classify"),)): 1,
            ("span.seconds", (("span", "serve.batch.classify"),)): 1,
        }
        for stage in PIPELINE_STAGE_NAMES:
            want[("pipeline.stage.seconds", (("stage", stage),))] = 1
        got = exported(registry, {name for name, _labels in want})
        assert {key: got.get(key) for key in want} == want
        assert obs.get_registry() is registry
