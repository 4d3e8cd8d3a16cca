"""Tests for request trace contexts, tail sampling, and attribution."""

import pytest

from repro import obs
from repro.obs.context import (
    DEFAULT_SLOW_THRESHOLD_S,
    NULL_TRACE,
    PIPELINE_STAGE_NAMES,
    SAMPLER_RATE_ENV,
    SAMPLER_SLOW_ENV,
    TailSampler,
    TraceContext,
    build_request_records,
    observe_attribution,
    sampler_from_env,
)
from repro.obs.registry import MAX_PENDING_TRACES, MetricsRegistry

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


class TestTraceContext:
    def test_marks_and_segments_telescope(self):
        ctx = TraceContext(7, 100)
        ctx.mark("serve.enqueue", 1.0)
        ctx.mark("serve.dequeue", 4.0)
        ctx.mark("serve.compute", 6.0)
        segments = ctx.segments()
        assert [s[0] for s in segments] == ["serve.queue.wait", "serve.batch.wait"]
        assert sum(d for _, _, d in segments) == ctx.marks[-1][1] - ctx.started_s

    def test_unknown_boundary_pair_gets_fallback_name(self):
        ctx = TraceContext(1, 1)
        ctx.mark("a", 0.0)
        ctx.mark("b", 1.0)
        assert ctx.segments()[0][0] == "a..b"

    def test_mark_time_and_started(self):
        ctx = TraceContext(1, 1)
        assert ctx.started_s == 0.0
        assert ctx.mark_time("missing") is None
        ctx.mark("ingest.push", 2.5)
        assert ctx.started_s == 2.5
        assert ctx.mark_time("ingest.push") == 2.5

    def test_null_trace_is_falsy_and_inert(self):
        assert not NULL_TRACE
        NULL_TRACE.mark("anything", 1.0)
        assert NULL_TRACE.marks == []
        assert bool(TraceContext(1, 1))


class TestTailSampler:
    def test_error_slo_slow_always_kept_without_a_draw(self):
        sampler = TailSampler(keep_ratio=0.0, seed=0)
        assert sampler.decide(0.001, error=True) == (True, "error")
        assert sampler.decide(0.001, slo_breach=True) == (True, "slo")
        assert sampler.decide(DEFAULT_SLOW_THRESHOLD_S) == (True, "slow")

    def test_boring_traces_follow_the_seeded_sequence(self):
        decisions = [TailSampler(keep_ratio=0.3, seed=42).decide(0.0) for _ in range(20)]
        replay = [TailSampler(keep_ratio=0.3, seed=42).decide(0.0) for _ in range(20)]
        # Each fresh sampler replays draw #1; a single sampler's
        # sequence is deterministic too.
        assert decisions == replay
        sampler = TailSampler(keep_ratio=0.3, seed=42)
        seq1 = [sampler.decide(0.0) for _ in range(50)]
        sampler2 = TailSampler(keep_ratio=0.3, seed=42)
        seq2 = [sampler2.decide(0.0) for _ in range(50)]
        assert seq1 == seq2
        assert {r for _, r in seq1} == {"sampled", "dropped"}

    def test_privileged_outcomes_do_not_advance_the_rng(self):
        a = TailSampler(keep_ratio=0.5, seed=7)
        b = TailSampler(keep_ratio=0.5, seed=7)
        a.decide(0.0, error=True)
        a.decide(0.0, slo_breach=True)
        a.decide(10.0)
        # a consumed no draws, so both samplers agree from here on.
        assert [a.decide(0.0) for _ in range(10)] == [b.decide(0.0) for _ in range(10)]

    def test_keep_ratio_bounds(self):
        with pytest.raises(ValueError):
            TailSampler(keep_ratio=1.5)
        assert TailSampler(keep_ratio=1.0).decide(0.0) == (True, "sampled")
        assert TailSampler(keep_ratio=0.0).decide(0.0) == (False, "dropped")


class TestSamplerFromEnv:
    def test_unset_means_no_sampler(self, monkeypatch):
        monkeypatch.delenv(SAMPLER_RATE_ENV, raising=False)
        assert sampler_from_env() is None

    def test_rate_and_slow_override(self, monkeypatch):
        monkeypatch.setenv(SAMPLER_RATE_ENV, "0.25")
        monkeypatch.setenv(SAMPLER_SLOW_ENV, "2.5")
        sampler = sampler_from_env()
        assert sampler.keep_ratio == 0.25
        assert sampler.slow_threshold_s == 2.5

    def test_junk_values_mean_no_sampler(self, monkeypatch):
        monkeypatch.setenv(SAMPLER_RATE_ENV, "lots")
        assert sampler_from_env() is None
        monkeypatch.setenv(SAMPLER_RATE_ENV, "7.0")
        assert sampler_from_env() is None


class TestBuildRequestRecords:
    def test_segments_and_stage_children_telescope(self):
        registry = MetricsRegistry(clock=ManualClock())
        ctx = registry.start_trace("serve.request")
        ctx.mark("serve.enqueue", 1.0)
        ctx.mark("serve.dequeue", 3.0)
        ctx.mark("serve.compute", 4.0)
        records = build_request_records(
            registry, ctx, 14.0, stage_seconds=(2.0, 2.0, 2.0, 2.0, 2.0)
        )
        names = [r.name for r in records]
        assert names[:3] == ["serve.queue.wait", "serve.batch.wait", "pipeline.classify"]
        assert names[3:] == [f"pipeline.stage.{s}" for s in PIPELINE_STAGE_NAMES]
        # Depth-1 children sum exactly to end-to-end; stage children sum
        # exactly to the compute tail.
        depth1 = [r for r in records if r.depth == 1]
        assert sum(r.duration_s for r in depth1) == 14.0 - ctx.started_s
        stages = [r for r in records if r.depth == 2]
        tail = next(r for r in records if r.name == "pipeline.classify")
        assert sum(r.duration_s for r in stages) == tail.duration_s
        assert all(r.trace_id == ctx.trace_id for r in records)
        assert all(r.parent_id == ctx.span_id for r in depth1)
        assert all(r.parent_id == tail.span_id for r in stages)

    def test_error_tail_is_serve_failed_without_stages(self):
        registry = MetricsRegistry(clock=ManualClock())
        ctx = registry.start_trace("serve.request")
        ctx.mark("serve.enqueue", 0.0)
        records = build_request_records(
            registry, ctx, 5.0, stage_seconds=(1.0,) * 5, error=True
        )
        assert [r.name for r in records] == ["serve.failed"]
        assert records[0].duration_s == 5.0


class TestObserveAttribution:
    def test_histograms_with_exemplars(self):
        registry = MetricsRegistry(clock=ManualClock())
        ctx = registry.start_trace("serve.request")
        ctx.mark("ingest.drain", 1.0)
        ctx.mark("serve.enqueue", 2.0)
        ctx.mark("serve.dequeue", 5.0)
        ctx.mark("serve.compute", 6.0)
        observe_attribution(registry, ctx)
        qw = instrument(registry, "serve.queue_wait.seconds")
        bw = instrument(registry, "serve.batch_wait.seconds")
        dc = instrument(registry, "ingest.drain_to_classify.seconds")
        assert (qw.count, bw.count, dc.count) == (1, 1, 1)
        for hist, value in ((qw, 3.0), (bw, 1.0), (dc, 5.0)):
            (ex,) = hist.exemplars()
            assert ex["value"] == value
            assert ex["trace_id"] == ctx.trace_id

    def test_missing_marks_skip_their_histograms(self):
        registry = MetricsRegistry(clock=ManualClock())
        ctx = registry.start_trace("serve.request")
        ctx.mark("serve.enqueue", 0.0)
        observe_attribution(registry, ctx)
        assert registry.instruments() == []


class TestRegistryTraceLifecycle:
    def test_finish_without_sampler_always_keeps(self):
        registry = MetricsRegistry(clock=ManualClock())
        ctx = registry.start_trace("serve.request", mark="serve.enqueue")
        assert registry.finish_trace(ctx, 2.0)
        (root,) = registry.spans()
        assert (root.name, root.trace_id, root.duration_s) == ("serve.request", ctx.trace_id, 2.0)
        (kept,) = [i for i in registry.instruments() if i.name == "obs.traces.kept"]
        assert dict(kept.labels)["reason"] == "unsampled"

    def test_sampler_drops_boring_and_keeps_errored(self):
        registry = MetricsRegistry(
            clock=ManualClock(), sampler=TailSampler(keep_ratio=0.0, seed=0)
        )
        dropped = registry.start_trace("serve.request", mark="serve.enqueue")
        with registry.span("work", parent=dropped):
            pass
        assert not registry.finish_trace(dropped, 0.001)
        assert registry.spans() == []  # buffered spans discarded with the trace
        errored = registry.start_trace("serve.request", mark="serve.enqueue")
        with registry.span("work", parent=errored):
            pass
        assert registry.finish_trace(errored, 0.002, error=True)
        assert {s.name for s in registry.spans()} == {"work", "serve.request"}
        counters = {
            (i.name, dict(i.labels).get("reason")): i.value
            for i in registry.instruments()
            if i.name.startswith("obs.traces.")
        }
        assert counters[("obs.traces.dropped", None)] == 1
        assert counters[("obs.traces.kept", "error")] == 1

    def test_slow_traces_survive_a_zero_keep_ratio(self):
        registry = MetricsRegistry(
            clock=ManualClock(),
            sampler=TailSampler(keep_ratio=0.0, slow_threshold_s=0.5, seed=0),
        )
        ctx = registry.start_trace("serve.request", mark="serve.enqueue")
        assert registry.finish_trace(ctx, 1.0)
        (root,) = registry.spans()
        assert root.trace_id == ctx.trace_id

    def test_pending_buffer_is_bounded(self):
        registry = MetricsRegistry(
            clock=ManualClock(), sampler=TailSampler(keep_ratio=1.0, seed=0)
        )
        contexts = [
            registry.start_trace("serve.request", mark="serve.enqueue")
            for _ in range(MAX_PENDING_TRACES + 5)
        ]
        for ctx in contexts:
            with registry.span("work", parent=ctx):
                pass
        evicted = next(
            i for i in registry.instruments() if i.name == "obs.traces.evicted"
        )
        assert evicted.value == 5
        # The evicted (oldest) traces lost their buffered spans: finishing
        # them commits only the root.
        assert registry.finish_trace(contexts[0], 1.0)
        assert [s.name for s in registry.spans()] == ["serve.request"]

    def test_adopt_trace_zero_is_null(self):
        registry = MetricsRegistry(clock=ManualClock())
        assert registry.adopt_trace("serve.request", 0) is NULL_TRACE
        ctx = registry.adopt_trace("serve.request", 9)
        assert ctx.trace_id == 9
        assert ctx.span_id


class TestFacade:
    def test_disabled_facade_returns_null_trace(self):
        registry = obs.get_registry()
        ctx = registry.start_trace("serve.request")
        assert ctx is NULL_TRACE
        assert registry.finish_trace(ctx, 1.0) is False
        assert registry.current_trace_id() == 0
        assert registry.sampler is None

    def test_enable_installs_and_replaces_sampler(self):
        registry = obs.enable(clock=ManualClock())
        assert registry.sampler is None
        sampler = TailSampler(keep_ratio=0.5)
        assert obs.enable(sampler=sampler) is registry
        assert registry.sampler is sampler
        replacement = TailSampler(keep_ratio=0.25)
        obs.get_registry().sampler = replacement
        assert registry.sampler is replacement

    def test_enable_consults_env_for_fresh_registry(self, monkeypatch):
        monkeypatch.setenv(SAMPLER_RATE_ENV, "0.125")
        registry = obs.enable(clock=ManualClock())
        assert registry.sampler is not None
        assert registry.sampler.keep_ratio == 0.125
