"""Tests for the span-correlated event journal and its wired call sites."""

import json

import pytest

from repro import obs
from repro.obs.events import DEFAULT_EVENT_CAPACITY, EventRecord, render_events_jsonl
from repro.obs.registry import EVENT_CAPACITY_ENV, MetricsRegistry

from tests.conftest import instrument


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


class TestEventJournal:
    """The registry's bounded event ring."""

    def test_bounded_with_dropped_count(self):
        reg = MetricsRegistry(clock=ManualClock(), event_capacity=2)
        for i in range(5):
            reg.event(f"e{i}")
        assert reg.event_capacity == 2
        assert [r.name for r in reg.events()] == ["e3", "e4"]
        # Every event is counted, retained or not.
        recorded = sum(i.value for i in reg.instruments() if i.name == "obs.events")
        assert recorded - len(reg.events()) == 3

    def test_resize_keeps_newest(self):
        reg = MetricsRegistry(clock=ManualClock(), event_capacity=10)
        for i in range(6):
            reg.event(f"e{i}")
        reg.set_event_capacity(3)
        assert reg.event_capacity == 3
        assert [r.name for r in reg.events()] == ["e3", "e4", "e5"]
        reg.event("e6")
        assert [r.name for r in reg.events()] == ["e4", "e5", "e6"]
        with pytest.raises(ValueError, match="event capacity must be positive"):
            reg.set_event_capacity(0)
        assert reg.event_capacity == 3

    def test_clear_keeps_capacity(self):
        reg = MetricsRegistry(clock=ManualClock(), event_capacity=7)
        reg.event("e")
        reg.reset()
        assert reg.events() == []
        assert reg.event_capacity == 7

    def test_default_capacity(self, monkeypatch):
        monkeypatch.delenv(EVENT_CAPACITY_ENV, raising=False)
        assert MetricsRegistry().event_capacity == DEFAULT_EVENT_CAPACITY

    def test_events_returns_a_copy(self):
        reg = MetricsRegistry(clock=ManualClock())
        reg.event("a")
        reg.events().clear()
        reg.event("b")
        assert [r.name for r in reg.events()] == ["a", "b"]


class TestRegistryEvents:
    def test_event_records_clock_and_fields(self):
        clock = ManualClock(3.5)
        reg = MetricsRegistry(clock=clock)
        reg.event("db.saved", path="/tmp/x.json", runs="4")
        (record,) = reg.events()
        assert record == EventRecord(
            3.5, "db.saved", None, (("path", "/tmp/x.json"), ("runs", "4"))
        )

    def test_event_correlates_to_enclosing_span(self):
        reg = MetricsRegistry(clock=ManualClock())
        with reg.span("outer"):
            with reg.span("inner"):
                reg.event("during.inner")
            reg.event("during.outer")
        reg.event("outside")
        inner_evt, outer_evt, outside = reg.events()
        spans = {s.name: s for s in reg.spans()}
        assert inner_evt.span_id == spans["inner"].span_id
        assert outer_evt.span_id == spans["outer"].span_id
        assert outside.span_id is None

    def test_event_increments_rate_counter(self):
        reg = MetricsRegistry(clock=ManualClock())
        reg.event("x.happened")
        reg.event("x.happened")
        assert instrument(reg, "obs.events", event="x.happened").value == 2.0

    def test_to_dict_and_jsonl(self):
        reg = MetricsRegistry(clock=ManualClock(1.0))
        with reg.span("s"):
            reg.event("a", k="v")
        text = render_events_jsonl(reg.events())
        assert text.endswith("\n")
        payload = json.loads(text.splitlines()[0])
        assert payload == {
            "t_s": 1.0,
            "name": "a",
            "span_id": reg.spans()[0].span_id,
            "fields": {"k": "v"},
        }
        assert render_events_jsonl([]) == ""


class TestFacade:
    def test_disabled_facade_discards_events(self):
        obs.disable()
        obs.event("ignored", reason="off")
        assert obs.get_registry().events() == []

    def test_enabled_facade_records(self):
        reg = obs.enable()
        obs.event("kept")
        assert [e.name for e in reg.events()] == ["kept"]


class TestWiredCallSites:
    """The event() calls wired into product code actually fire."""

    def test_db_save_event(self, tmp_path):
        from repro.core.labels import ClassComposition
        from repro.db.records import RunRecord
        from repro.db.store import ApplicationDB

        obs.enable()
        comp = ClassComposition(fractions=(0.0, 1.0, 0.0, 0.0, 0.0))
        db = ApplicationDB()
        db.add_run(
            RunRecord(
                application="postmark",
                node="VM1",
                t0=0.0,
                t1=1.0,
                num_samples=3,
                application_class=comp.dominant(),
                composition=comp,
            )
        )
        target = tmp_path / "db.json"
        db.save(target)
        (event,) = [e for e in obs.get_registry().events() if e.name == "db.saved"]
        fields = dict(event.fields)
        assert fields["path"] == str(target)
        assert fields["applications"] == "1"
        assert fields["runs"] == "1"

    def test_model_cache_eviction_event(self):
        from repro.serve.cache import ModelCache

        obs.enable()
        cache = ModelCache(trainer=lambda config, seed: object(), max_models=1)
        cache.get(seed=0)
        cache.get(seed=1)  # evicts seed 0
        (event,) = [e for e in obs.get_registry().events() if e.name == "serve.cache.evicted"]
        assert dict(event.fields) == {"seed": "0", "retained": "1"}

    def test_online_attach_detach_events(self):
        from repro.core.online import OnlineClassifier
        from repro.core.pipeline import ApplicationClassifier
        from repro.monitoring.multicast import MulticastChannel

        from tests.test_core_pipeline import synthetic_training

        obs.enable()
        trained = ApplicationClassifier().train(synthetic_training())
        online = OnlineClassifier(trained, MulticastChannel())
        online.attach()
        online.detach()
        names = [e.name for e in obs.get_registry().events()]
        assert names.count("online.attach") == 1
        assert names.count("online.detach") == 1

    def test_service_overload_and_drain_events(self, classifier):
        from repro.errors import ServiceOverloadedError
        from repro.experiments.fleet import profile_fleet
        from repro.serve.service import ClassificationService

        obs.enable()
        fleet = profile_fleet(1, seed=100)
        # One worker, batch window long enough that the queue backs up.
        service = ClassificationService(
            classifier, batch_size=1, max_wait_s=30.0, max_queue=1, workers=1
        )
        try:
            service.submit(fleet[0])
            with pytest.raises(ServiceOverloadedError):
                for _ in range(10):
                    service.submit(fleet[0])
        finally:
            service.shutdown(drain=False)
        names = [e.name for e in obs.get_registry().events()]
        assert "serve.overloaded" in names
        assert "serve.drain.begin" in names
        assert "serve.drain.end" in names
