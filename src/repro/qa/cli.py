"""Command-line interface for the static-analysis subsystem.

Usage::

    python -m repro.qa check src/ [--format text|json|sarif] [--strict]
                                  [--baseline FILE] [--write-baseline]
                                  [--cache FILE | --no-cache]
    python -m repro.qa fix src/ [--dry-run]
    python -m repro.qa baseline src/ --sync [--baseline FILE]
    python -m repro.qa concurrency src/ [--dot FILE] [--cache FILE | --no-cache]
    python -m repro.qa numerics src/ [--format text|json] [--cache FILE | --no-cache]
    python -m repro.qa rules

Exit codes: 0 clean, 1 findings (errors always; warnings too under
``--strict``), 2 usage error.  The tier-1 suite and CI run
``check src/ --strict``, so the tree must stay free of *all* findings
outside the committed baseline.  ``check`` keeps an incremental cache
(default ``.repro-qa-cache.json``) so warm runs re-parse only changed
files; ``--no-cache`` forces a cold run.
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from .baseline import Baseline
from .cache import DEFAULT_CACHE, ResultCache, rules_signature
from .engine import Analyzer, Report, collect_files
from .fix import fix_file
from .registry import all_rules
from .sarif import to_sarif

#: Baseline file looked for (relative to the cwd) when --baseline is absent.
DEFAULT_BASELINE = "qa-baseline.txt"

T = TypeVar("T")


def _add_cache_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--cache",
        default=DEFAULT_CACHE,
        metavar="FILE",
        help=f"incremental result cache file (default: {DEFAULT_CACHE})",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the incremental cache (cold run)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-qa",
        description="Repro-specific static analysis: determinism, layering, "
        "shape contracts, and API hygiene over the repro source tree.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="analyze files/directories and report findings")
    p.add_argument("paths", nargs="+", help="files or directories to analyze")
    p.add_argument("--format", choices=("text", "json", "sarif"), default="text")
    p.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on warnings too, not just errors (CI mode)",
    )
    p.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help=f"baseline file of grandfathered findings (default: {DEFAULT_BASELINE} if present)",
    )
    p.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file (report grandfathered findings too)",
    )
    p.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the baseline file to cover all current findings, then exit 0",
    )
    _add_cache_flags(p)

    p = sub.add_parser("fix", help="apply automatic fixes (future import, mutable defaults, bare except)")
    p.add_argument("paths", nargs="+", help="files or directories to fix")
    p.add_argument(
        "--dry-run",
        action="store_true",
        help="print unified diffs instead of rewriting files",
    )

    p = sub.add_parser("baseline", help="maintain the baseline file")
    p.add_argument("paths", nargs="+", help="files or directories to analyze")
    p.add_argument(
        "--sync",
        action="store_true",
        required=True,
        help="prune baseline entries that no current finding matches "
        "(keeps justification comments; never adds entries)",
    )
    p.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help=f"baseline file to sync (default: {DEFAULT_BASELINE})",
    )

    p = sub.add_parser(
        "concurrency",
        help="render the inferred lock-guard tables and the lock-order graph",
    )
    p.add_argument("paths", nargs="+", help="files or directories to analyze")
    p.add_argument(
        "--dot",
        default=None,
        metavar="FILE",
        help="also write the lock-order graph as DOT to FILE ('-' for stdout)",
    )
    _add_cache_flags(p)

    p = sub.add_parser(
        "numerics",
        help="render the per-kernel dtype/allocation table",
    )
    p.add_argument("paths", nargs="+", help="files or directories to analyze")
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_cache_flags(p)

    sub.add_parser("rules", help="list every registered rule")
    return parser


def _cmd_rules() -> int:
    for rule in all_rules():
        print(f"{rule.id:25s} {rule.severity}   {rule.description}")
    return 0


def _render_text(report: Report, strict: bool) -> None:
    for finding in report.findings:
        print(finding.render())
    grandfathered = f", {len(report.grandfathered)} baselined" if report.grandfathered else ""
    cache = (
        f" ({report.cached_files} cached)" if report.cached_files else ""
    )
    print(
        f"repro-qa: {report.num_files} files{cache}, {len(report.errors)} errors, "
        f"{len(report.warnings)} warnings{grandfathered}"
        + (" [strict]" if strict else "")
    )


def _cache(args: argparse.Namespace) -> ResultCache | None:
    """The incremental cache the ``--cache``/``--no-cache`` flags ask for."""
    return None if args.no_cache else ResultCache(args.cache, rules_signature(all_rules()))


def _analyze(
    paths: list[str],
    step: Callable[[Analyzer, list[str]], T],
    baseline: Baseline | None = None,
    cache: ResultCache | None = None,
) -> T | None:
    """``step(analyzer, paths)`` with every registered rule.

    Returns None, after printing the error, when a path does not exist
    (the caller exits 2).
    """
    try:
        return step(Analyzer(baseline=baseline, cache=cache), paths)
    except FileNotFoundError as exc:
        print(f"repro-qa: error: {exc}", file=sys.stderr)
        return None


def _cmd_check(args: argparse.Namespace) -> int:
    baseline_path = args.baseline or DEFAULT_BASELINE
    baseline = Baseline() if args.no_baseline else Baseline.load(baseline_path)
    report = _analyze(args.paths, Analyzer.run, baseline, _cache(args))
    if report is None:
        return 2
    if args.write_baseline:
        count = Baseline.write(baseline_path, report.findings + report.grandfathered)
        print(f"repro-qa: wrote {count} baseline entries to {baseline_path}")
        return 0
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    elif args.format == "sarif":
        print(json.dumps(to_sarif(report, list(all_rules())), indent=2))
    else:
        _render_text(report, strict=args.strict)
    return 1 if report.failed(strict=args.strict) else 0


def _cmd_fix(args: argparse.Namespace) -> int:
    try:
        files = collect_files(args.paths)
    except FileNotFoundError as exc:
        print(f"repro-qa: error: {exc}", file=sys.stderr)
        return 2
    changed = total = 0
    for path in files:
        try:
            result = fix_file(path, dry_run=args.dry_run)
        except SyntaxError as exc:
            print(f"repro-qa: {path}: skipped (does not parse: {exc.msg})", file=sys.stderr)
            continue
        if not result.changed:
            continue
        changed += 1
        total += result.num_fixes
        if args.dry_run:
            diff = difflib.unified_diff(
                result.source.splitlines(keepends=True),
                result.fixed.splitlines(keepends=True),
                fromfile=str(path),
                tofile=str(path),
            )
            sys.stdout.writelines(diff)
        else:
            summary = ", ".join(f"{n}× {rule}" for rule, n in sorted(result.counts.items()))
            print(f"repro-qa: fixed {path} ({summary})")
    verb = "would fix" if args.dry_run else "fixed"
    print(f"repro-qa: {verb} {total} finding(s) in {changed} of {len(files)} file(s)")
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    baseline_path = args.baseline or DEFAULT_BASELINE
    if not Path(baseline_path).exists():
        print(f"repro-qa: no baseline file at {baseline_path}; nothing to sync")
        return 0
    # Run against an *empty* baseline so every still-live finding (new
    # and grandfathered alike) contributes its fingerprint.
    report = _analyze(args.paths, Analyzer.run, Baseline())
    if report is None:
        return 2
    kept, pruned = Baseline.sync(baseline_path, report.findings)
    print(f"repro-qa: baseline {baseline_path}: kept {kept}, pruned {pruned} stale entries")
    return 0


def _cmd_concurrency(args: argparse.Namespace) -> int:
    from .lockgraph import ConcurrencyIndex, render_guard_tables, render_lock_order, to_dot

    index = _analyze(args.paths, Analyzer.build_index, cache=_cache(args))
    if index is None:
        return 2
    conc = ConcurrencyIndex.of(index)
    print(render_guard_tables(conc), end="")
    print()
    print(render_lock_order(conc), end="")
    if args.dot is not None:
        dot = to_dot(conc.lock_order)
        if args.dot == "-":
            print()
            print(dot, end="")
        else:
            Path(args.dot).write_text(dot, encoding="utf-8")
            print(f"repro-qa: wrote lock-order DOT to {args.dot}")
    return 0


def _cmd_numerics(args: argparse.Namespace) -> int:
    from .numerics import NumericsIndex, numerics_to_json, render_numerics_table

    index = _analyze(args.paths, Analyzer.build_index, cache=_cache(args))
    if index is None:
        return 2
    num = NumericsIndex.of(index)
    if args.format == "json":
        print(json.dumps(numerics_to_json(num), indent=2))
    else:
        print(render_numerics_table(num), end="")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro.qa`` and the ``repro-qa`` script."""
    args = _build_parser().parse_args(argv)
    if args.command == "rules":
        return _cmd_rules()
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "fix":
        return _cmd_fix(args)
    if args.command == "baseline":
        return _cmd_baseline(args)
    if args.command == "concurrency":
        return _cmd_concurrency(args)
    if args.command == "numerics":
        return _cmd_numerics(args)
    raise AssertionError(f"unhandled command {args.command!r}")
