"""The analysis driver: collect files, run rules, filter suppressions.

:class:`Analyzer` walks the given paths and, per file, either parses it
(running every per-file rule and extracting
:class:`~repro.qa.symbols.ModuleSymbols` facts) or restores findings
and facts from the incremental :class:`~repro.qa.cache.ResultCache`.
The facts of all files are then joined into a
:class:`~repro.qa.callgraph.ProjectIndex` for the flow-aware
:class:`~repro.qa.registry.IndexRule` families (shape contracts,
metric names, cross-module dead code, unused results).  Finally
pragma-suppressed findings are dropped and the rest partitioned
against the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .baseline import Baseline
from .cache import ResultCache
from .callgraph import ProjectIndex
from .findings import Finding, Severity
from .registry import IndexRule, Rule, all_rules
from .source import SourceModule
from .symbols import ModuleSymbols, build_module_symbols

#: Directory names never descended into.
SKIP_DIRS = {
    "__pycache__",
    ".git",
    ".hypothesis",
    ".tox",
    ".venv",
    "build",
    "dist",
    "node_modules",
}

#: Relative path fragments never descended into (matched as consecutive
#: components anywhere in the path) — generated benchmark artefacts.
SKIP_PATH_FRAGMENTS = (("benchmarks", "out"),)


def _has_fragment(parts: tuple[str, ...], fragment: tuple[str, ...]) -> bool:
    span = len(fragment)
    return any(parts[i : i + span] == fragment for i in range(len(parts) - span + 1))


def collect_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``*.py`` files.

    Raises
    ------
    FileNotFoundError
        If a given path does not exist.
    """
    out: set[Path] = set()
    for p in paths:
        p = Path(p)
        if not p.exists():
            raise FileNotFoundError(f"no such file or directory: {p}")
        if p.is_dir():
            for f in p.rglob("*.py"):
                if any(part in SKIP_DIRS for part in f.parts):
                    continue
                if any(_has_fragment(f.parts, frag) for frag in SKIP_PATH_FRAGMENTS):
                    continue
                out.add(f)
        else:
            out.add(p)
    return sorted(out)


@dataclass
class Report:
    """Outcome of one analysis run."""

    findings: list[Finding] = field(default_factory=list)
    grandfathered: list[Finding] = field(default_factory=list)
    num_files: int = 0
    #: Files parsed this run vs. restored from the incremental cache.
    parsed_files: int = 0
    cached_files: int = 0

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    def failed(self, strict: bool = False) -> bool:
        """True if this run should exit non-zero."""
        return bool(self.errors) or (strict and bool(self.findings))

    def to_dict(self) -> dict[str, object]:
        """JSON-ready mapping (used by ``--format json``)."""
        return {
            "version": 1,
            "files": self.num_files,
            "parsed": self.parsed_files,
            "cached": self.cached_files,
            "counts": {
                "error": len(self.errors),
                "warning": len(self.warnings),
                "grandfathered": len(self.grandfathered),
            },
            "findings": [f.to_dict() for f in self.findings],
        }


class Analyzer:
    """Run a set of rules over a set of modules."""

    def __init__(
        self,
        rules: Sequence[Rule] | None = None,
        baseline: Baseline | None = None,
        cache: ResultCache | None = None,
    ) -> None:
        self.rules: list[Rule] = list(rules) if rules is not None else list(all_rules())
        self.baseline = baseline or Baseline()
        self.cache = cache

    # ------------------------------------------------------------------
    # per-file analysis
    # ------------------------------------------------------------------
    def _analyze_module(self, module: SourceModule) -> tuple[ModuleSymbols, list[Finding]]:
        """Per-file rules + fact extraction for one parsed module."""
        raw: list[Finding] = []
        for rule in self.rules:
            if not isinstance(rule, IndexRule):
                raw.extend(rule.check_module(module))
        return build_module_symbols(module), raw

    def _load_and_analyze(
        self, path: Path, relpath: str
    ) -> tuple[ModuleSymbols | None, list[Finding]]:
        try:
            module = SourceModule.parse(path, relpath=relpath)
        except SyntaxError as exc:
            finding = Finding(
                rule_id="parse-error",
                severity=Severity.ERROR,
                path=relpath,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                message=f"file does not parse: {exc.msg}",
            )
            return None, [finding]
        return self._analyze_module(module)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def _collect(
        self, paths: Iterable[str | Path]
    ) -> tuple[list[Path], list[ModuleSymbols], list[Finding], int]:
        """Gather facts + per-file findings for every file under *paths*.

        Each file is either parsed (running per-file rules and fact
        extraction) or restored from the incremental cache; the count
        returned is of the files restored.  Shared by :meth:`run` and
        :meth:`build_index`.
        """
        files = collect_files(paths)
        raw: list[Finding] = []
        facts: list[ModuleSymbols] = []
        cached = 0
        for path in files:
            relpath = _display_path(path)
            hit = self.cache.lookup(path, relpath) if self.cache is not None else None
            if hit is not None:
                file_facts, file_findings = hit
                cached += 1
            else:
                file_facts, file_findings = self._load_and_analyze(path, relpath)
                if self.cache is not None:
                    self.cache.store(path, relpath, file_facts, file_findings)
            if file_facts is not None:
                facts.append(file_facts)
            raw.extend(file_findings)
        if self.cache is not None:
            self.cache.prune(files)
            self.cache.save()
        return files, facts, raw, cached

    def _finish(
        self, facts: list[ModuleSymbols], raw: list[Finding]
    ) -> tuple[list[Finding], list[Finding]]:
        """Index rules, pragma filter, baseline split: (new sorted, baselined)."""
        index = ProjectIndex.build(facts)
        for rule in self.rules:
            if isinstance(rule, IndexRule):
                raw.extend(rule.check_index(index))
        facts_by_path: Mapping[str, ModuleSymbols] = {f.relpath: f for f in facts}
        visible = [f for f in raw if not _suppressed(facts_by_path.get(f.path), f)]
        new, old = self.baseline.split(visible)
        new.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
        return new, old

    def build_index(self, paths: Iterable[str | Path]) -> ProjectIndex:
        """The :class:`ProjectIndex` of *paths*, cache-accelerated.

        Used by the ``repro-qa concurrency`` and ``numerics`` CLI verbs,
        which consume the index directly instead of running rules over
        it.
        """
        _files, facts, _raw, _cached = self._collect(paths)
        return ProjectIndex.build(facts)

    def run(self, paths: Iterable[str | Path]) -> Report:
        """Analyze every ``*.py`` under *paths* and return a report."""
        files, facts, raw, cached = self._collect(paths)
        new, old = self._finish(facts, raw)
        return Report(
            findings=new,
            grandfathered=old,
            num_files=len(files),
            parsed_files=len(files) - cached,
            cached_files=cached,
        )

    # ------------------------------------------------------------------
    # in-memory helpers (unit tests)
    # ------------------------------------------------------------------
    def run_sources(self, sources: Mapping[str, str]) -> list[Finding]:
        """Analyze a dict of ``module name → source`` as one project.

        Index rules see the whole synthetic project, so cross-module
        fixtures (shape contracts, dead code, a catalog stub for
        metric names) can be expressed inline in tests.
        """
        names = set(sources)
        facts: list[ModuleSymbols] = []
        raw: list[Finding] = []
        for name, src in sources.items():
            module = SourceModule.from_source(
                src,
                relpath=f"<{name}>",
                name=name,
                is_package=any(other.startswith(name + ".") for other in names),
            )
            file_facts, file_findings = self._analyze_module(module)
            facts.append(file_facts)
            raw.extend(file_findings)
        return self._finish(facts, raw)[0]

    def run_source(self, source: str, name: str = "repro.core.snippet") -> list[Finding]:
        """Analyze one in-memory source string (unit-test helper).

        The synthetic *name* controls package-scoped rules: pass e.g.
        ``repro.core.x`` to exercise core-only rules.  Index rules see
        a single-module project.
        """
        module = SourceModule.from_source(source, relpath="<snippet>", name=name)
        facts, raw = self._analyze_module(module)
        return self._finish([facts], raw)[0]


def _display_path(path: Path) -> str:
    """Path as shown in findings: relative to cwd when possible, posix."""
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def _suppressed(facts: ModuleSymbols | None, finding: Finding) -> bool:
    if facts is None:
        return False
    return facts.suppressed(finding.rule_id, finding.line)
