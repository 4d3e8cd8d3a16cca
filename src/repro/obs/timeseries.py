"""Fixed-capacity time-series recorder over the metrics registry.

The registry holds *current* values; operability needs *history* — a
drop counter at 4 000 means nothing without knowing whether it got
there over a week or the last second.  :class:`MetricsRecorder` closes
that gap: it scrapes every registered instrument on a cadence into
per-instrument ring buffers, from which windowed statistics (min, max,
last, rate, windowed quantiles) are computed deterministically.

Timestamps come from an injectable clock (the registry clock by
default), and :meth:`MetricsRecorder.sample` can be driven manually, so
tests exercise windows and rates with zero sleeps.  The background
:meth:`~MetricsRecorder.start` thread only controls *when* samples are
taken; everything derived from them is pure arithmetic over the rings.

Consumers: the SLO monitors (:mod:`repro.obs.slo`) evaluate their rules
against recorder windows, and ``repro obs top`` renders
:func:`render_top`'s live snapshot table.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import NamedTuple

from .registry import (
    Clock,
    Counter,
    Gauge,
    Histogram,
    LabelSet,
    MetricsRegistry,
    NullRegistry,
    histogram_quantile,
)

#: Default samples retained per instrument series.
DEFAULT_SERIES_CAPACITY = 512

#: Default scrape cadence of the background thread (seconds).
DEFAULT_INTERVAL_S = 1.0


class SeriesPoint(NamedTuple):
    """One scraped sample of one instrument."""

    #: Recorder-clock reading at the scrape.
    t_s: float
    #: Counter/gauge value; for histograms the observation count.
    value: float
    #: Histogram sum at the scrape (0.0 for counters/gauges).
    sum: float = 0.0
    #: Histogram cumulative bucket counts (empty for counters/gauges).
    cumulative: tuple[int, ...] = ()


class InstrumentSeries:
    """Ring of scraped samples for one ``(name, labels)`` instrument."""

    __slots__ = ("kind", "name", "labels", "bounds", "_points")

    def __init__(
        self,
        kind: str,
        name: str,
        labels: LabelSet,
        bounds: tuple[float, ...] = (),
        capacity: int = DEFAULT_SERIES_CAPACITY,
    ) -> None:
        if capacity < 2:
            raise ValueError("series capacity must be at least 2 (rates need a pair)")
        self.kind = kind
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self._points: deque[SeriesPoint] = deque(maxlen=capacity)

    def append(self, point: SeriesPoint) -> None:
        """Record one scraped sample (evicting the oldest when full)."""
        self._points.append(point)

    def points(self, window_s: float | None = None, now: float | None = None) -> list[SeriesPoint]:
        """Samples in the window ``[now - window_s, now]``, oldest first.

        ``window_s=None`` returns everything retained; ``now`` defaults
        to the newest sample's timestamp.
        """
        pts = list(self._points)
        if window_s is None or not pts:
            return pts
        end = now if now is not None else pts[-1].t_s
        start = end - window_s
        return [p for p in pts if start <= p.t_s <= end]

    def __len__(self) -> int:
        return len(self._points)

    # ------------------------------------------------------------------
    # windowed statistics
    # ------------------------------------------------------------------
    def last(self) -> float | None:
        """Most recent sampled value, or ``None`` before any sample."""
        return self._points[-1].value if self._points else None

    def minimum(self, window_s: float | None = None, now: float | None = None) -> float | None:
        """Smallest sampled value in the window."""
        pts = self.points(window_s, now)
        return min(p.value for p in pts) if pts else None

    def maximum(self, window_s: float | None = None, now: float | None = None) -> float | None:
        """Largest sampled value in the window."""
        pts = self.points(window_s, now)
        return max(p.value for p in pts) if pts else None

    def rate(self, window_s: float | None = None, now: float | None = None) -> float | None:
        """Per-second change of the value across the window.

        For counters (and histogram counts) this is the event rate; it
        needs at least two samples spanning a positive time delta, and
        returns ``None`` otherwise.
        """
        pts = self.points(window_s, now)
        if len(pts) < 2:
            return None
        dt = pts[-1].t_s - pts[0].t_s
        if dt <= 0:
            return None
        return (pts[-1].value - pts[0].value) / dt

    def quantile(
        self, q: float, window_s: float | None = None, now: float | None = None
    ) -> float | None:
        """Windowed *q*-quantile of a histogram series.

        Subtracts the oldest in-window cumulative snapshot from the
        newest, so the estimate covers only observations made *inside*
        the window.  With a single sample the lifetime distribution is
        used.  Returns ``None`` for non-histogram series or when no
        observation falls in the window.
        """
        if self.kind != "histogram":
            return None
        pts = self.points(window_s, now)
        if not pts:
            return None
        newest = pts[-1]
        if len(pts) == 1:
            delta = newest.cumulative
        else:
            oldest = pts[0]
            delta = tuple(n - o for n, o in zip(newest.cumulative, oldest.cumulative))
        if not delta or delta[-1] <= 0:
            return None
        return histogram_quantile(self.bounds, delta, q)


class MetricsRecorder:
    """Scrape the registry into bounded per-instrument series.

    Parameters
    ----------
    registry:
        The registry to scrape.
    capacity:
        Samples retained per instrument series (ring buffer).
    interval_s:
        Cadence of the background thread started by :meth:`start`.
    clock:
        Timestamp source for samples; defaults to the registry clock,
        so a fake registry clock makes recorded series deterministic.
    """

    def __init__(
        self,
        registry: MetricsRegistry | NullRegistry,
        capacity: int = DEFAULT_SERIES_CAPACITY,
        interval_s: float = DEFAULT_INTERVAL_S,
        clock: Clock | None = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.registry = registry
        self.capacity = capacity
        self.interval_s = interval_s
        self.clock: Clock = clock if clock is not None else registry.clock
        self._lock = threading.Lock()
        self._series: dict[tuple[str, LabelSet], InstrumentSeries] = {}
        self._samples_taken = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def sample(self) -> float:
        """Take one scrape of every registered instrument; returns its timestamp.

        Safe to call manually (tests, CLI snapshots) whether or not the
        background thread is running.
        """
        t = self.clock()
        instruments = self.registry.instruments()
        with self._lock:
            for inst in instruments:
                key = (inst.name, inst.labels)
                series = self._series.get(key)
                if isinstance(inst, Histogram):
                    bounds, cumulative, total, count = inst.snapshot()
                    if series is None:
                        series = InstrumentSeries(
                            inst.kind, inst.name, inst.labels, bounds, self.capacity
                        )
                        self._series[key] = series
                    series.append(SeriesPoint(t, float(count), total, cumulative))
                elif isinstance(inst, (Counter, Gauge)):
                    if series is None:
                        series = InstrumentSeries(
                            inst.kind, inst.name, inst.labels, (), self.capacity
                        )
                        self._series[key] = series
                    series.append(SeriesPoint(t, inst.value))
            self._samples_taken += 1
        return t

    @property
    def samples_taken(self) -> int:
        """Scrapes performed so far (manual and background)."""
        with self._lock:
            return self._samples_taken

    # ------------------------------------------------------------------
    # background cadence
    # ------------------------------------------------------------------
    def start(self) -> "MetricsRecorder":
        """Launch the background scrape thread; idempotent; returns self."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return self
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="repro-obs-recorder", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the background thread (if running); idempotent."""
        self._stop.set()
        # Swap the thread reference out under the lock, but join outside
        # it: the loop's sample() takes the same lock, so joining while
        # holding it would deadlock against the final in-flight scrape.
        with self._lock:
            thread = self._thread
            self._thread = None
        if thread is not None and thread.is_alive():
            thread.join()

    @property
    def running(self) -> bool:
        """True while the background scrape thread is alive."""
        with self._lock:
            thread = self._thread
        return thread is not None and thread.is_alive()

    def _loop(self) -> None:
        # Event.wait gives a cancellable sleep: stop() wakes it at once.
        while not self._stop.wait(self.interval_s):
            self.sample()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def series(self, name: str, **labels: str) -> InstrumentSeries | None:
        """The series for one exact ``(name, labels)`` instrument, if scraped."""
        key = (name, tuple(sorted((str(k), str(v)) for k, v in labels.items())))
        with self._lock:
            return self._series.get(key)

    def series_matching(self, name: str, **labels: str) -> list[InstrumentSeries]:
        """Series whose name matches and whose labels are a superset of *labels*.

        An empty *labels* matches every label set of *name* — how the
        SLO rules fan one rule out across e.g. all ``stage=...`` series.
        """
        want = set((str(k), str(v)) for k, v in labels.items())
        with self._lock:
            return [
                s
                for (n, _ls), s in sorted(self._series.items())
                if n == name and want.issubset(set(s.labels))
            ]

    def all_series(self) -> list[InstrumentSeries]:
        """Every recorded series, sorted by (name, labels)."""
        with self._lock:
            return [s for _key, s in sorted(self._series.items())]

    def clear(self) -> None:
        """Drop all recorded series (the thread, if any, keeps sampling)."""
        with self._lock:
            self._series.clear()
            self._samples_taken = 0


def _fmt(value: float | None) -> str:
    """Compact cell formatting for :func:`render_top`."""
    if value is None:
        return "-"
    if value != value:  # NaN  # qa: ignore[float-eq]
        return "nan"
    if abs(value) >= 1000 or (0 < abs(value) < 0.001):
        return f"{value:.3e}"
    return f"{value:.4g}"


def _window_stats(
    recorder: MetricsRecorder, window_s: float
) -> list[tuple[InstrumentSeries, tuple[float | None, ...]]]:
    """Each series with its (last, min, max, rate, p50, p99) over *window_s*.

    The one computation behind :func:`render_top` and
    :func:`recorder_windows_dict`, so the table and the JSON agree.
    """
    return [
        (
            s,
            (
                s.last(),
                s.minimum(window_s),
                s.maximum(window_s),
                s.rate(window_s),
                s.quantile(0.5, window_s),
                s.quantile(0.99, window_s),
            ),
        )
        for s in recorder.all_series()
    ]


def render_top(recorder: MetricsRecorder, window_s: float = 60.0) -> str:
    """Render a ``top``-style snapshot table of every recorded series.

    Columns: instrument name+labels, kind, last value, window min/max,
    per-second rate, and (for histograms) the windowed p50/p99.
    """
    rows = [["METRIC", "KIND", "LAST", "MIN", "MAX", "RATE/s", "P50", "P99"]]
    for s, stats in _window_stats(recorder, window_s):
        label_text = ",".join(f"{k}={v}" for k, v in s.labels)
        name = f"{s.name}{{{label_text}}}" if label_text else s.name
        rows.append([name, s.kind, *(_fmt(value) for value in stats)])
    if len(rows) == 1:
        return "(no series recorded)"
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [row[0].ljust(widths[0])] + [
            cell.rjust(widths[i]) for i, cell in enumerate(row) if i > 0
        ]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def _window_cell(value: float | None) -> float | None:
    """JSON-safe window statistic: NaN becomes ``None``."""
    if value is None or value != value:  # qa: ignore[float-eq]
        return None
    return value


#: ``recorder_windows_dict`` keys, in :func:`_window_stats` order.
_WINDOW_KEYS = ("last", "min", "max", "rate_per_s", "p50", "p99")


def recorder_windows_dict(recorder: MetricsRecorder, window_s: float = 60.0) -> list[dict]:
    """Windowed statistics per recorded series, as JSON-ready dicts.

    One dict per series with exactly the statistics
    :func:`render_top` tabulates — last value, window min/max, counter
    rate, histogram p50/p99 — computed over the same *window_s* and
    honoring the same recorder window boundaries (rates need two
    in-window samples; histogram quantiles subtract the oldest in-window
    cumulative snapshot from the newest).  This is what ``/metrics.json``
    embeds so scrapes agree with ``repro obs top``.
    """
    return [
        {
            "metric": s.name,
            "labels": dict(s.labels),
            "kind": s.kind,
            "window_s": window_s,
            **{key: _window_cell(value) for key, value in zip(_WINDOW_KEYS, stats)},
        }
        for s, stats in _window_stats(recorder, window_s)
    ]


__all__ = [
    "DEFAULT_INTERVAL_S",
    "DEFAULT_SERIES_CAPACITY",
    "InstrumentSeries",
    "MetricsRecorder",
    "SeriesPoint",
    "recorder_windows_dict",
    "render_top",
]
