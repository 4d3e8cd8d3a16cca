"""repro.obs — pipeline observability (metrics registry, spans, exporters).

The paper's classifier lives inside a resource-management loop
(profiler → classification center → application DB → schedulers); in
production every stage of that loop must expose its latency, throughput
and error behaviour.  This package is the telemetry subsystem the rest
of the tree instruments itself with:

* a process-local :class:`~repro.obs.registry.MetricsRegistry` of
  counters, gauges, and fixed-bucket latency histograms, each declared
  once as an :class:`~repro.obs.spec.InstrumentSpec` and resolved with
  :func:`get`;
* hierarchical tracing :func:`span`\\ s driven by an injectable clock,
  so traces are deterministic under test;
* Prometheus-text and JSON exporters plus the ``repro obs`` CLI;
* a live telemetry plane on top of the registry: an HTTP exposition
  endpoint (:class:`~repro.obs.http.TelemetryServer` — ``/metrics``,
  ``/healthz``, ``/readyz``, ``/tracez``, ``/eventz``), a fixed-capacity
  :class:`~repro.obs.timeseries.MetricsRecorder` of per-instrument
  history, declarative SLO monitor rules (:mod:`repro.obs.slo`), and a
  span-correlated structured :func:`event` journal
  (:mod:`repro.obs.events`).

Collection is **off by default**: the module-level registry starts as a
:class:`~repro.obs.registry.NullRegistry` whose instruments are shared
no-op singletons, so the instrumentation calls scattered through the
hot paths cost almost nothing until :func:`enable` flips the one global
switch.  Stdlib-only by design — every layer of the architecture DAG may
import it.

Typical use::

    from repro import obs

    registry = obs.enable()
    ...  # run the pipeline
    print(obs.render_prometheus(registry))
    obs.disable()
"""

from __future__ import annotations

import threading

from .context import (
    NULL_TRACE,
    SAMPLER_RATE_ENV,
    TailSampler,
    TraceContext,
    sampler_from_env,
)
from .events import EventRecord, render_events_jsonl
from .export import registry_to_dict, render_json, render_prometheus
from .http import TelemetryServer
from .profiler import PROFILER_INTERVAL_ENV, SamplingProfiler
from .registry import (
    DEFAULT_LATENCY_BUCKETS_S,
    Clock,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    SPAN_HISTOGRAM_NAME,
    histogram_quantile,
)
from .slo import SloResult, SloRule, Verdict, default_rules, evaluate
from .spans import SpanRecord, render_trace
from .spec import InstrumentSpec, LabelledSpecs
from .timeseries import MetricsRecorder, render_top

_SWITCH_LOCK = threading.Lock()
_NULL_REGISTRY = NullRegistry()
_registry: MetricsRegistry | NullRegistry = _NULL_REGISTRY


def enable(
    clock: Clock | None = None,
    trace_capacity: int | None = None,
    event_capacity: int | None = None,
    sampler: TailSampler | None = None,
) -> MetricsRegistry:
    """Switch collection on; returns the live registry.

    Idempotent: if already enabled, the existing registry (and its
    collected data) is kept; a non-``None`` *clock* replaces its default
    span clock, non-``None`` capacities resize the span ring / event
    ring (keeping the newest records), and a non-``None`` *sampler*
    replaces the tail-sampling policy either way.  Capacities left
    ``None`` fall back to the ``REPRO_OBS_TRACE_CAPACITY`` /
    ``REPRO_OBS_EVENT_CAPACITY`` environment variables; a fresh registry
    with *sampler* left ``None`` consults ``REPRO_OBS_SAMPLER_RATE``
    (see :func:`~repro.obs.context.sampler_from_env`).
    """
    global _registry
    with _SWITCH_LOCK:
        current = _registry
        if isinstance(current, MetricsRegistry):
            if clock is not None:
                current.clock = clock
            if trace_capacity is not None:
                current.set_trace_capacity(trace_capacity)
            if event_capacity is not None:
                current.set_event_capacity(event_capacity)
            if sampler is not None:
                current.sampler = sampler
            return current
        live = MetricsRegistry(
            clock=clock,
            trace_capacity=trace_capacity,
            event_capacity=event_capacity,
            sampler=sampler,
        )
        _registry = live
        return live


def disable() -> None:
    """Switch collection off (instrumentation reverts to no-ops).

    The previous registry and its data are discarded; call
    :func:`get_registry` first to keep a reference for late export.
    """
    global _registry
    with _SWITCH_LOCK:
        _registry = _NULL_REGISTRY


def enabled() -> bool:
    """True while a live registry is collecting."""
    return _registry.enabled


def get_registry() -> MetricsRegistry | NullRegistry:
    """The currently active registry (live or the shared null one)."""
    return _registry


def reset() -> None:
    """Drop all collected instruments and spans (no-op while disabled)."""
    _registry.reset()


def get(spec: InstrumentSpec) -> Counter | Gauge | Histogram | tuple:
    """The handle of *spec* on the active registry (a shared no-op when disabled).

    A family spec resolves to a tuple of handles.  The registry keeps
    the handle until :func:`reset`, and a :func:`disable`/:func:`enable`
    swap brings a registry that resolves afresh, so call sites hold the
    spec, never the handle.
    """
    return _registry.get(spec)


def span(name: str, clock: Clock | None = None, parent: TraceContext | None = None) -> object:
    """Open a tracing span on the active registry.

    While disabled this returns a shared no-op context manager that
    never reads any clock, so fake-clock call sequences in tests are
    unchanged unless observability is explicitly on.  Pass a
    :class:`TraceContext` as *parent* to attach the span to a trace
    minted on another thread.
    """
    return _registry.span(name, clock=clock, parent=parent)


def event(name: str, **fields: str) -> None:
    """Record a structured event on the active registry.

    While disabled this is a no-op that never reads any clock; while
    enabled the record lands in the registry's bounded event ring,
    carrying the id of the span enclosing the call (see
    :mod:`repro.obs.events`).
    """
    _registry.event(name, **fields)


__all__ = [
    "Clock",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_S",
    "EventRecord",
    "Gauge",
    "Histogram",
    "InstrumentSpec",
    "LabelledSpecs",
    "MetricsRecorder",
    "MetricsRegistry",
    "NULL_TRACE",
    "NullRegistry",
    "PROFILER_INTERVAL_ENV",
    "SAMPLER_RATE_ENV",
    "SPAN_HISTOGRAM_NAME",
    "SamplingProfiler",
    "SloResult",
    "SloRule",
    "SpanRecord",
    "TailSampler",
    "TelemetryServer",
    "TraceContext",
    "Verdict",
    "default_rules",
    "disable",
    "enable",
    "enabled",
    "evaluate",
    "event",
    "get",
    "get_registry",
    "histogram_quantile",
    "registry_to_dict",
    "render_events_jsonl",
    "render_json",
    "render_prometheus",
    "render_top",
    "render_trace",
    "reset",
    "sampler_from_env",
    "span",
]
