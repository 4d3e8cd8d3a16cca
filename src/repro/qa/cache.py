"""Incremental result cache: skip re-parsing unchanged files.

The cache maps each analyzed file to its per-file findings and its
:class:`~repro.qa.symbols.ModuleSymbols` facts (both encoded by
:mod:`repro.qa.codec`), keyed by ``(mtime_ns, size)`` and a global
*rules signature*.  On a warm run the
engine restores both without touching the parser; only the (cheap)
index rules, pragma filtering and baseline split are recomputed — that
is what keeps ``repro-qa check src/ --strict`` sub-second on an
unchanged tree.

The rules signature hashes the registered rule ids and classes, the
Python version, and :data:`ENGINE_REVISION`.  Bump the revision
whenever analysis *semantics* change without a rule id changing (new
fact fields, fixed extraction bugs), or stale findings survive.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Iterable, Sequence

from .codec import decode, encode
from .findings import Finding
from .symbols import ModuleSymbols

#: Manual analysis-semantics revision; see module docstring.
#: Revision 2: concurrency facts added to :class:`ModuleSymbols` —
#: caches written before the concurrency rules existed must not
#: satisfy them with fact records that lack lock/thread information.
#: Revision 3: numeric kernel facts (dtype/allocation flow) added to
#: :class:`ModuleSymbols` — pre-numerics caches lack the array-op,
#: scalar-loop, and dtype-policy records the numeric rules read.
#: Revision 4: conditions record the lock they wrap and a condition
#: wait records the lock it releases — older facts lack both.
#: Revision 5: facts and findings are stored in the positional layout of
#: :mod:`repro.qa.codec` — older entries are keyed dicts.
#: Revision 6: augmented assigns on Python int/float scalars are no
#: longer recorded as in-place array ops in numeric kernel facts.
ENGINE_REVISION = 6

#: Default cache file name, looked up in the working directory.
DEFAULT_CACHE = ".repro-qa-cache.json"


def rules_signature(rules: Iterable[object]) -> str:
    """Digest identifying the active rule set and engine semantics."""
    parts = [f"engine:{ENGINE_REVISION}", f"python:{sys.version_info[0]}.{sys.version_info[1]}"]
    for rule in rules:
        parts.append(f"{getattr(rule, 'id', '?')}:{type(rule).__module__}.{type(rule).__qualname__}")
    digest = hashlib.sha256("\n".join(sorted(parts)).encode("utf-8")).hexdigest()
    return digest[:16]


class ResultCache:
    """On-disk per-file findings + facts, invalidated by mtime/size/rules."""

    def __init__(self, path: str | Path, signature: str) -> None:
        self.path = Path(path)
        self.signature = signature
        self._files: dict[str, dict] = {}
        self._dirty = False
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return  # corrupt/unreadable cache: start cold
        if data.get("signature") != self.signature:
            return  # rule set or engine changed: start cold
        files = data.get("files")
        if isinstance(files, dict):
            self._files = files

    # ------------------------------------------------------------------
    # lookup / store
    # ------------------------------------------------------------------
    @staticmethod
    def _stat_key(path: Path) -> tuple[int, int] | None:
        try:
            st = os.stat(path)
        except OSError:
            return None
        return st.st_mtime_ns, st.st_size

    def lookup(
        self, path: Path, relpath: str
    ) -> tuple[ModuleSymbols | None, list[Finding]] | None:
        """Cached (facts, raw findings) for *path*, or None on any miss."""
        entry = self._files.get(str(path.resolve()))
        if entry is None or entry.get("relpath") != relpath:
            return None
        key = self._stat_key(path)
        if key is None or [key[0], key[1]] != entry.get("stat"):
            return None
        facts = decode(ModuleSymbols, entry["facts"]) if entry.get("facts") else None
        findings = [decode(Finding, f) for f in entry.get("findings", [])]
        return facts, findings

    def store(
        self,
        path: Path,
        relpath: str,
        facts: ModuleSymbols | None,
        findings: Sequence[Finding],
    ) -> None:
        key = self._stat_key(path)
        if key is None:
            return
        self._files[str(path.resolve())] = {
            "relpath": relpath,
            "stat": [key[0], key[1]],
            "facts": encode(facts) if facts is not None else None,
            "findings": [encode(f) for f in findings],
        }
        self._dirty = True

    def prune(self, live_paths: Iterable[Path]) -> None:
        """Drop entries for files no longer part of the analyzed set."""
        keep = {str(p.resolve()) for p in live_paths}
        stale = [k for k in self._files if k not in keep]
        for k in stale:
            del self._files[k]
            self._dirty = True

    def save(self) -> None:
        """Atomically persist the cache when anything changed."""
        if not self._dirty:
            return
        payload = {"version": 1, "signature": self.signature, "files": self._files}
        tmp = self.path.with_name(self.path.name + ".tmp")
        try:
            tmp.write_text(json.dumps(payload), encoding="utf-8")
            os.replace(tmp, self.path)
        except OSError:
            return  # read-only tree: caching is best-effort
        self._dirty = False
