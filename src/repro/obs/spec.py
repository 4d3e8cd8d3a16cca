"""Instrument declarations: what to record, stated once per instrument.

An :class:`InstrumentSpec` names one instrument — kind, name, help
text, histogram buckets and fixed labels — independently of any
registry.  Instrumented code declares its specs at module level and
resolves them where it records with ``registry.get(spec)`` (or the
``obs.get`` facade).  The registry owns every handle: ``reset()`` drops
them and a ``disable()``/``enable()`` swap brings a registry with none,
so no call site caches a handle or keys anything on the registry.

A *family* spec (``family=("stage", names)``) resolves to one handle
per label value in one ``get``; :class:`LabelledSpecs` makes one spec
per value of an open-valued label (node, span name, event name).

Stdlib-only and free of package imports, so every :mod:`repro.obs`
module — :mod:`~repro.obs.context` included — can declare here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Default latency buckets in seconds (upper bounds; +Inf is implicit).
#: Spaced to resolve both per-snapshot costs (~µs) and whole profiling
#: runs (~s).
DEFAULT_LATENCY_BUCKETS_S: tuple[float, ...] = (
    1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 10.0,
)

#: The instrument kinds a spec may declare.
KINDS = ("counter", "gauge", "histogram")

#: Label key/value pairs, sorted — the identity of one instrument.
LabelSet = tuple[tuple[str, str], ...]


def label_set(labels: dict[str, str]) -> LabelSet:
    """Normalize a label dict to the sorted-tuple identity form."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass(frozen=True, eq=False)
class InstrumentSpec:
    """One declared instrument; build it with :meth:`counter`, :meth:`gauge` or :meth:`histogram`.

    Specs compare and hash by identity: a registry keys its handles on
    the spec object, so declare each spec once and reuse it.  Two specs
    naming the same instrument still resolve to the one instrument (the
    first creation's help text and buckets win).
    """

    kind: str
    name: str
    help: str = ""
    buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_S
    labels: LabelSet = ()
    #: ``(label, values)``: resolve to one handle per value, in order.
    family: tuple[str, tuple[str, ...]] | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown instrument kind {self.kind!r}")

    @classmethod
    def counter(cls, name: str, help: str = "", **labels: str) -> "InstrumentSpec":
        """Declare the counter *name*."""
        return cls("counter", name, help, labels=label_set(labels))

    @classmethod
    def gauge(cls, name: str, help: str = "", **labels: str) -> "InstrumentSpec":
        """Declare the gauge *name*."""
        return cls("gauge", name, help, labels=label_set(labels))

    @classmethod
    def histogram(
        cls,
        name: str,
        help: str = "",
        *,
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_S,
        family: tuple[str, tuple[str, ...]] | None = None,
        **labels: str,
    ) -> "InstrumentSpec":
        """Declare the histogram *name*."""
        return cls("histogram", name, help, tuple(buckets), label_set(labels), family)

    def labelled(self, **labels: str) -> "InstrumentSpec":
        """A new spec with *labels* added to the fixed labels."""
        return replace(self, labels=label_set({**dict(self.labels), **labels}))

    def label_sets(self) -> tuple[LabelSet, ...]:
        """The label set of each instrument the spec resolves to, in handle order."""
        if self.family is None:
            return (self.labels,)
        key, values = self.family
        return tuple(label_set({**dict(self.labels), key: value}) for value in values)


class LabelledSpecs(dict):
    """One spec per value of an open-valued label, made on first use.

    ``specs[value]`` is *base* with ``label=value`` added; the same
    value always returns the same spec, so its handle is resolved once
    per registry.  Declare one at module level: every owner shares its
    specs, so a registry holds one handle per distinct value however
    many planes or gmonds come and go.  A dict subclass, so a known
    value is one C-level lookup.
    """

    __slots__ = ("base", "label")

    def __init__(self, base: InstrumentSpec, label: str) -> None:
        super().__init__()
        self.base = base
        self.label = label

    def __missing__(self, value: str) -> InstrumentSpec:
        # setdefault is atomic under the GIL: racing first uses of a
        # value agree on one spec.
        return self.setdefault(value, self.base.labelled(**{self.label: value}))


__all__ = [
    "DEFAULT_LATENCY_BUCKETS_S",
    "InstrumentSpec",
    "KINDS",
    "LabelSet",
    "LabelledSpecs",
    "label_set",
]
