"""Repro-specific static analysis (stdlib-``ast``, fully offline).

The QA subsystem mechanically checks the invariants the paper's results
depend on: determinism (no wall clocks / unseeded RNGs in the pipeline
and simulator), the package-layering DAG, matrix-orientation
documentation for the Figure-2 data flow, and general API hygiene.

See ``docs/STATIC_ANALYSIS.md`` for the rule catalog, the
``# qa: ignore[rule-id]`` pragma, and the baseline workflow.
"""

from __future__ import annotations

from .baseline import Baseline
from .cache import ResultCache, rules_signature
from .callgraph import CallGraph, ProjectIndex
from .concurrency import ModuleConcurrency, build_module_concurrency
from .engine import Analyzer, Report, collect_files
from .findings import Finding, Severity
from .fix import FixResult, fix_file, fix_source
from .lockgraph import ConcurrencyIndex, LockOrderGraph
from .numerics import ModuleNumerics, NumericsIndex, build_module_numerics
from .registry import IndexRule, Rule, all_rules, get_rule, register
from .sarif import to_sarif
from .source import SourceModule
from .symbols import ModuleSymbols, build_module_symbols

__all__ = [
    "Analyzer",
    "Baseline",
    "CallGraph",
    "ConcurrencyIndex",
    "Finding",
    "FixResult",
    "IndexRule",
    "LockOrderGraph",
    "ModuleConcurrency",
    "ModuleNumerics",
    "ModuleSymbols",
    "NumericsIndex",
    "ProjectIndex",
    "Report",
    "ResultCache",
    "Rule",
    "Severity",
    "SourceModule",
    "all_rules",
    "build_module_concurrency",
    "build_module_numerics",
    "build_module_symbols",
    "collect_files",
    "fix_file",
    "fix_source",
    "get_rule",
    "register",
    "rules_signature",
    "to_sarif",
]
