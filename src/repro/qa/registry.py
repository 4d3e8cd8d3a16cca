"""Rule base classes and the global rule registry.

A rule subclasses :class:`Rule` (per-file AST) or :class:`IndexRule`
(flow-aware: sees the whole-project symbol/call-graph index built from
cached facts) and registers itself with the :func:`register`
decorator.  The engine runs every registered rule;
``python -m repro.qa rules`` lists them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Type

from .findings import Finding, Severity
from .source import SourceModule

if TYPE_CHECKING:
    from .callgraph import ProjectIndex


class Rule:
    """Per-file rule: inspects one :class:`SourceModule` at a time."""

    #: Stable kebab-case identifier used in output, pragmas, baselines.
    id: str = ""
    #: Default severity for this rule's findings.
    severity: Severity = Severity.ERROR
    #: One-line summary shown by ``repro-qa rules`` and the docs.
    description: str = ""

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        """Yield findings for one file."""
        raise NotImplementedError

    def finding(self, module: SourceModule, lineno: int, message: str, col: int = 0) -> Finding:
        """Build a finding anchored at ``module:lineno`` for this rule."""
        return Finding(
            rule_id=self.id,
            severity=self.severity,
            path=module.relpath,
            line=lineno,
            col=col,
            message=message,
            source_line=module.line_at(lineno),
        )

    def finding_at(
        self, path: str, lineno: int, message: str, col: int = 0, source_line: str = ""
    ) -> Finding:
        """Build a finding from facts (no :class:`SourceModule` at hand)."""
        return Finding(
            rule_id=self.id,
            severity=self.severity,
            path=path,
            line=lineno,
            col=col,
            message=message,
            source_line=source_line,
        )


class IndexRule(Rule):
    """Flow-aware rule over the project-wide :class:`ProjectIndex`.

    Index rules run after every file's facts are available (parsed or
    restored from the incremental cache) and may consult the symbol
    table, the call graph, shape contracts, and call-site argument
    facts.  They never see raw ASTs, which is what keeps warm cache
    runs parse-free.
    """

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        return ()

    def check_index(self, index: "ProjectIndex") -> Iterable[Finding]:
        """Yield findings computed over the full project index."""
        raise NotImplementedError


_REGISTRY: dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and add a rule to the registry.

    Raises
    ------
    ValueError
        On a missing or duplicate rule id.
    """
    rule = cls()
    if not rule.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    _REGISTRY[rule.id] = rule
    return cls


def all_rules() -> Iterator[Rule]:
    """Every registered rule, sorted by id (imports the rule package)."""
    from . import rules  # noqa: F401  (import populates the registry)

    for rule_id in sorted(_REGISTRY):
        yield _REGISTRY[rule_id]


def get_rule(rule_id: str) -> Rule:
    """Look up one rule by id.

    Raises
    ------
    KeyError
        If no rule has that id.
    """
    from . import rules  # noqa: F401

    return _REGISTRY[rule_id]
