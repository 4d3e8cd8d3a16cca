"""Tests for the HTTP exposition endpoint (real sockets, deterministic health)."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.obs import InstrumentSpec
from repro.obs.http import PROMETHEUS_CONTENT_TYPE, TelemetryServer
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import SloRule, Verdict
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


@pytest.fixture()
def server(registry, recorder):
    srv = TelemetryServer(registry=registry, recorder=recorder).start()
    yield srv
    srv.stop()


def fetch(server, path):
    """(status, content_type, body) — 4xx/5xx do not raise."""
    try:
        with urllib.request.urlopen(server.url + path, timeout=10) as resp:
            return resp.status, resp.headers.get("Content-Type", ""), resp.read().decode()
    except urllib.error.HTTPError as err:
        return err.code, err.headers.get("Content-Type", ""), err.read().decode()


class TestLifecycle:
    def test_port_unavailable_before_start(self, registry):
        srv = TelemetryServer(registry=registry)
        with pytest.raises(RuntimeError):
            srv.port
        assert not srv.running

    def test_start_binds_free_port_and_is_idempotent(self, server):
        assert server.running
        assert server.port > 0
        assert server.url == f"http://127.0.0.1:{server.port}"
        assert server.start() is server  # no rebind

    def test_stop_is_idempotent_and_releases(self, registry, recorder):
        srv = TelemetryServer(registry=registry, recorder=recorder).start()
        srv.stop()
        srv.stop()
        assert not srv.running

    def test_two_servers_never_collide(self, registry):
        a = TelemetryServer(registry=registry).start()
        b = TelemetryServer(registry=registry).start()
        try:
            assert a.port != b.port
        finally:
            a.stop()
            b.stop()


class TestMetricsEndpoints:
    def test_metrics_prometheus_text(self, registry, server):
        registry.get(InstrumentSpec.counter("pipeline.runs", help="Total runs.")).inc(3)
        status, ctype, body = fetch(server, "/metrics")
        assert status == 200
        assert ctype == PROMETHEUS_CONTENT_TYPE
        assert "repro_pipeline_runs_total 3" in body
        assert body.endswith("\n")

    def test_metrics_json(self, registry, server):
        registry.get(InstrumentSpec.gauge("depth")).set(4.0)
        with registry.span("work"):
            registry.event("thing.happened", detail="x")
        status, ctype, body = fetch(server, "/metrics.json")
        assert status == 200
        assert ctype == "application/json"
        payload = json.loads(body)
        assert "depth" in [g["name"] for g in payload["gauges"]]
        assert payload["spans"][0]["name"] == "work"
        assert payload["events"][0]["name"] == "thing.happened"

    def test_tracez_renders_span_tree(self, registry, server):
        with registry.span("outer"):
            with registry.span("inner"):
                pass
        status, _, body = fetch(server, "/tracez")
        assert status == 200
        assert "outer" in body and "inner" in body

    def test_eventz_is_jsonl(self, registry, server):
        registry.event("a", k="1")
        registry.event("b")
        status, ctype, body = fetch(server, "/eventz")
        assert status == 200
        assert ctype == "application/x-ndjson"
        lines = body.splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["a", "b"]

    def test_unknown_path_404(self, server):
        status, _, body = fetch(server, "/nope")
        assert status == 404
        assert "/nope" in body


class TestTraceAndProfileEndpoints:
    def test_tracez_trace_filter_selects_one_trace(self, registry, server):
        first = registry.start_trace("serve.request", mark="serve.enqueue")
        registry.finish_trace(first, 1.0)
        second = registry.start_trace("serve.request", mark="serve.enqueue")
        registry.finish_trace(second, 2.0)
        status, _, body = fetch(server, f"/tracez?trace={first.trace_id}")
        assert status == 200
        assert f"trace={first.trace_id}" in body
        assert f"trace={second.trace_id}" not in body

    def test_tracez_bad_trace_id_is_400(self, server):
        status, _, body = fetch(server, "/tracez?trace=bogus")
        assert status == 400
        assert "bogus" in body

    def test_profilez_without_profiler_is_404(self, server):
        status, _, body = fetch(server, "/profilez")
        assert status == 404
        assert "no profiler" in body

    def test_profilez_serves_collapsed_stacks(self, registry):
        import sys

        from repro.obs.profiler import SamplingProfiler

        profiler = SamplingProfiler(interval_s=1.0, registry=registry)
        profiler.sample_once(frames={99: sys._getframe()})
        srv = TelemetryServer(registry=registry, profiler=profiler).start()
        try:
            status, ctype, body = fetch(srv, "/profilez")
            assert status == 200
            assert ctype.startswith("text/plain")
            (line,) = body.splitlines()
            stack, count = line.rsplit(" ", 1)
            assert count == "1"
            assert "test_obs_http" in stack
        finally:
            srv.stop()

    def test_metrics_json_includes_recorder_windows(self, registry, recorder, server):
        registry.get(InstrumentSpec.counter("pipeline.runs")).inc(2)
        recorder.sample()
        status, _, body = fetch(server, "/metrics.json?window=30")
        assert status == 200
        payload = json.loads(body)
        assert isinstance(payload["windows"], list)
        (window,) = [w for w in payload["windows"] if w["metric"] == "pipeline.runs"]
        assert window["window_s"] == 30.0
        assert window["last"] == 2.0

    def test_metrics_json_bad_window_is_400(self, server):
        status, _, body = fetch(server, "/metrics.json?window=wide")
        assert status == 400
        assert "wide" in body


class TestHealthz:
    def make_server(self, registry, recorder):
        rules = (
            SloRule(
                "drop-rate", "counter_rate", "dropped", warn=1.0, page=10.0,
                window_s=60.0,
            ),
        )
        return TelemetryServer(registry=registry, recorder=recorder, rules=rules)

    def test_healthz_flips_ok_warn_page_under_injected_clock(
        self, registry, recorder, clock
    ):
        """Deterministic verdict flips: manual clock + manual samples, no sleeps."""
        srv = self.make_server(registry, recorder).start()
        try:
            c = registry.get(InstrumentSpec.counter("dropped"))
            # OK: no traffic.
            clock.t = 0.0
            recorder.sample()
            clock.t = 10.0
            recorder.sample()
            status, _, body = fetch(srv, "/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "OK"

            # WARN: 5 drops/s over the next 10 fake seconds.
            c.inc(50)
            clock.t = 20.0
            recorder.sample()
            status, _, body = fetch(srv, "/healthz")
            assert status == 200
            payload = json.loads(body)
            assert payload["status"] == "WARN"
            assert payload["rules"][0]["verdict"] == "WARN"

            # PAGE: 200 more drops in 10 fake seconds → 503.
            c.inc(2000)
            clock.t = 30.0
            recorder.sample()
            status, _, body = fetch(srv, "/healthz")
            assert status == 503
            assert json.loads(body)["status"] == "PAGE"

            # Recovery: quiet window pushes the rate back under warn.
            clock.t = 300.0
            recorder.sample()
            status, _, body = fetch(srv, "/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "OK"
        finally:
            srv.stop()

    def test_healthz_without_recorder_is_ok(self, registry):
        srv = TelemetryServer(registry=registry).start()
        try:
            status, _, body = fetch(srv, "/healthz")
            assert status == 200
            payload = json.loads(body)
            assert payload["status"] == "OK"
            assert payload["rules"] == []
        finally:
            srv.stop()


class TestReadyz:
    def test_ready_after_start_draining_after_flip(self, server):
        status, _, body = fetch(server, "/readyz")
        assert (status, body) == (200, "ready\n")
        server.set_ready(False)
        status, _, body = fetch(server, "/readyz")
        assert (status, body) == (503, "draining\n")
        server.set_ready(True)
        status, _, _ = fetch(server, "/readyz")
        assert status == 200


class TestFacadeResolution:
    def test_server_without_registry_serves_live_facade(self):
        srv = TelemetryServer().start()  # constructed while disabled
        try:
            obs.enable()
            obs.get(InstrumentSpec.counter("late.metric")).inc(7)
            _, _, body = fetch(srv, "/metrics")
            assert "repro_late_metric_total 7" in body
        finally:
            srv.stop()


class TestServiceEmbedding:
    def test_classification_service_lifecycle(self, classifier):
        from repro.experiments.fleet import profile_fleet
        from repro.serve.service import ClassificationService

        fleet = profile_fleet(2, seed=100)
        telemetry = TelemetryServer()
        service = ClassificationService(
            classifier, max_wait_s=0.005, telemetry=telemetry
        )
        try:
            assert telemetry.running
            status, _, body = fetch(telemetry, "/readyz")
            assert (status, body) == (200, "ready\n")
            service.submit(fleet[0]).result(timeout=10.0)
        finally:
            service.shutdown()
        # Shutdown flipped readiness and then stopped the server.
        assert not telemetry.ready
        assert not telemetry.running


class TestConcurrentLifecycle:
    def test_concurrent_stop_is_safe(self, registry, recorder):
        srv = TelemetryServer(registry=registry, recorder=recorder).start()
        barrier = threading.Barrier(3, timeout=10.0)

        def closer():
            barrier.wait()
            srv.stop()

        threads = [threading.Thread(target=closer) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
        assert not any(t.is_alive() for t in threads)
        assert not srv.running

    def test_concurrent_start_binds_one_server(self, registry):
        srv = TelemetryServer(registry=registry)
        barrier = threading.Barrier(4, timeout=10.0)

        def opener():
            barrier.wait()
            srv.start()

        threads = [threading.Thread(target=opener) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
        try:
            assert not any(t.is_alive() for t in threads)
            assert srv.running
            status, _ctype, body = fetch(srv, "/readyz")
            assert (status, body) == (200, "ready\n")
        finally:
            srv.stop()
        assert not srv.running
