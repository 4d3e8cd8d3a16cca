"""One JSON codec for the qa fact records and cached findings.

The incremental cache (:mod:`repro.qa.cache`) stores each file's
:class:`~repro.qa.symbols.ModuleSymbols` facts and findings as JSON.
Every such record is a dataclass, so its encoding is derived from its
field types instead of being written out per class:

* a dataclass becomes the list of its field values, in field order;
* tuples, lists and sets become lists (a set sorted, so the JSON is
  deterministic), and decode back to the annotated container;
* a dict keeps its keys, which JSON turns into strings; an ``int``
  key is converted back on decode;
* an enum becomes its value; ``X | None`` passes ``None`` through.

Each class's encoder and decoder is built once from
:func:`typing.get_type_hints` and memoized, so
``decode(cls, json.loads(json.dumps(encode(record)))) == record`` for
every record whose values match its annotations.  The layout is
positional: adding, removing or reordering a field of any record
changes the cached JSON's meaning and must bump
:data:`repro.qa.cache.ENGINE_REVISION`.
"""

from __future__ import annotations

import enum
import types
import typing
from dataclasses import fields, is_dataclass
from operator import attrgetter
from typing import Any, Callable, TypeVar

T = TypeVar("T")

#: A per-value conversion; ``None`` means the value passes unchanged.
Step = Callable[[Any], Any] | None

_RECORD_STEPS: dict[tuple[type, bool], Callable[[Any], Any]] = {}


def encode(record: object) -> object:
    """JSON-ready form of a dataclass *record*."""
    return _record_step(type(record), True)(record)


def decode(cls: type[T], data: object) -> T:
    """Rebuild a *cls* record from :func:`encode` output or its JSON."""
    return _record_step(cls, False)(data)


def _record_step(cls: type, enc: bool) -> Callable[[Any], Any]:
    """The memoized encoder (*enc*) or decoder of dataclass *cls*."""
    step = _RECORD_STEPS.get((cls, enc))
    if step is not None:
        return step
    names = [f.name for f in fields(cls)]
    get = attrgetter(*names) if len(names) > 1 else (lambda r: (getattr(r, names[0]),))
    #: (position, step) of each field that is not stored as is; filled
    #: after memoizing, so a self-referencing record finds its own step.
    convert: list[tuple[int, Callable[[Any], Any]]] = []

    def step(value: Any) -> Any:
        out = list(get(value) if enc else value)
        for i, s in convert:
            out[i] = s(out[i])
        return out if enc else cls(*out)

    _RECORD_STEPS[(cls, enc)] = step
    hints = typing.get_type_hints(cls)
    for i, name in enumerate(names):
        s = _step(hints[name], enc)
        if s is not None:
            convert.append((i, s))
    return step


def _step(tp: Any, enc: bool) -> Step:
    """The conversion one way (*enc* or decode) for annotation *tp*."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        (inner,) = [a for a in args if a is not type(None)]
        step = _step(inner, enc)
        return None if step is None else (lambda v: None if v is None else step(v))
    if origin is tuple and args[-1] is not Ellipsis:
        parts = [_step(a, enc) for a in args]
        if not any(parts):
            return None if enc else tuple
        return lambda v: tuple(x if s is None else s(x) for s, x in zip(parts, v))
    if origin in (tuple, list, set, frozenset):
        item = _step(args[0], enc)
        if enc and origin in (set, frozenset):
            return sorted if item is None else (lambda v: sorted(map(item, v)))
        if enc and item is None:
            return None
        out = list if enc else origin
        return out if item is None else (lambda v: out(map(item, v)))
    if origin is dict:
        key = None if enc or args[0] is str else args[0]
        value = _step(args[1], enc)
        if enc and value is None:
            return None
        return lambda v: {
            k if key is None else key(k): x if value is None else value(x)
            for k, x in v.items()
        }
    if is_dataclass(tp):
        return _record_step(tp, enc)
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        return (lambda v: v.value) if enc else tp
    return None
