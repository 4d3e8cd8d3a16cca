"""Tests for the QA tooling around the engine: autofix, SARIF output,
the incremental result cache, baseline sync, and the CLI subcommands.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.qa.baseline import Baseline
from repro.qa.cache import ResultCache, rules_signature
from repro.qa.cli import main as qa_main
from repro.qa.engine import Analyzer, Report, collect_files
from repro.qa.findings import Finding, Severity
from repro.qa.fix import fix_source
from repro.qa.registry import all_rules
from repro.qa.sarif import to_sarif


def dedent(src: str) -> str:
    return textwrap.dedent(src)


# ----------------------------------------------------------------------
# autofix
# ----------------------------------------------------------------------


def test_fix_inserts_future_import_after_docstring():
    src = dedent(
        """\
        \"\"\"Module doc.\"\"\"

        def f(x: int | None) -> int:
            return x or 0
        """
    )
    result = fix_source(src)
    lines = result.fixed.splitlines()
    assert lines[0] == '"""Module doc."""'
    assert lines[1] == ""
    assert lines[2] == "from __future__ import annotations"
    assert result.counts == {"future-annotations": 1}


def test_fix_inserts_future_import_at_top_without_docstring():
    src = "def f(x: int | None) -> int:\n    return x or 0\n"
    result = fix_source(src)
    assert result.fixed.splitlines()[0] == "from __future__ import annotations"


def test_fix_mutable_default_rewrites_and_guards():
    src = dedent(
        """\
        def f(x, y=[]):
            \"\"\"Doc.\"\"\"
            y.append(x)
            return y
        """
    )
    result = fix_source(src)
    assert result.fixed == dedent(
        """\
        def f(x, y=None):
            \"\"\"Doc.\"\"\"
            if y is None:
                y = []
            y.append(x)
            return y
        """
    )


def test_fix_mutable_default_without_docstring_guards_first():
    src = "def f(y={}):\n    return y\n"
    result = fix_source(src)
    assert result.fixed == ("def f(y=None):\n    if y is None:\n        y = {}\n    return y\n")


def test_fix_mutable_default_skips_lambdas_and_multiline_defaults():
    src = dedent(
        """\
        g = lambda x=[]: x

        def f(y=[
            1,
        ]):
            return y
        """
    )
    result = fix_source(src)
    assert not result.changed


def test_fix_bare_except():
    src = "try:\n    work()\nexcept:\n    pass\n"
    result = fix_source(src)
    assert "except Exception:" in result.fixed
    assert result.counts == {"bare-except": 1}


def test_fix_is_idempotent():
    src = dedent(
        """\
        def f(x: int | None, y=[]):
            try:
                return y
            except:
                pass
        """
    )
    once = fix_source(src).fixed
    twice = fix_source(once)
    assert not twice.changed
    assert twice.fixed == once


def test_fix_output_is_clean_for_fixed_rules():
    src = dedent(
        """\
        def f(x: int | None, y=[], z={}):
            try:
                return x, y, z
            except:
                pass
        """
    )
    fixed = fix_source(src).fixed
    found = Analyzer().run_source(fixed, name="repro.workloads.mod")
    fixable = {"future-annotations", "mutable-default", "bare-except"}
    assert [f for f in found if f.rule_id in fixable] == []


def test_fix_leaves_clean_source_untouched():
    src = "from __future__ import annotations\n\n\ndef f(x: int | None) -> int:\n    return 0\n"
    result = fix_source(src)
    assert not result.changed
    assert result.fixed == src


# ----------------------------------------------------------------------
# SARIF
# ----------------------------------------------------------------------


def _finding(rule="float-eq", severity=Severity.ERROR, line=3, col=4):
    return Finding(
        rule_id=rule,
        severity=severity,
        path="src/repro/core/x.py",
        line=line,
        col=col,
        message="boom",
        source_line="x == 0.15",
    )


def test_sarif_document_shape():
    report = Report(findings=[_finding()], num_files=1)
    rules = list(all_rules())
    doc = to_sarif(report, rules)
    assert doc["version"] == "2.1.0"
    assert doc["$schema"].endswith("sarif-2.1.0.json")
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-qa"
    assert {r["id"] for r in run["tool"]["driver"]["rules"]} >= {r.id for r in rules}
    assert len(run["results"]) == 1


def test_sarif_result_location_and_fingerprint():
    finding = _finding()
    doc = to_sarif(Report(findings=[finding]), list(all_rules()))
    result = doc["runs"][0]["results"][0]
    assert result["ruleId"] == "float-eq"
    assert result["level"] == "error"
    loc = result["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"] == "src/repro/core/x.py"
    assert loc["region"] == {"startLine": 3, "startColumn": 5}  # 1-based column
    assert result["partialFingerprints"]["reproQa/v1"] == finding.fingerprint()


def test_sarif_synthesizes_descriptor_for_unregistered_rule():
    report = Report(findings=[_finding(rule="parse-error")])
    doc = to_sarif(report, list(all_rules()))
    ids = {r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]}
    assert "parse-error" in ids


def test_sarif_one_result_per_finding():
    report = Report(findings=[_finding(line=n) for n in range(1, 6)])
    doc = to_sarif(report, list(all_rules()))
    assert len(doc["runs"][0]["results"]) == 5


def test_sarif_is_json_serializable():
    doc = to_sarif(Report(findings=[_finding()]), list(all_rules()))
    assert json.loads(json.dumps(doc)) == doc


# ----------------------------------------------------------------------
# incremental cache
# ----------------------------------------------------------------------


@pytest.fixture
def tree(tmp_path):
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(
        dedent(
            """\
            \"\"\"Doc.\"\"\"

            __all__ = ["api"]


            def api():
                \"\"\"Doc.\"\"\"
                return 1
            """
        )
    )
    return tmp_path


def _run(tree, cache):
    analyzer = Analyzer(list(all_rules()), baseline=Baseline(), cache=cache)
    return analyzer.run([tree])


def test_cache_warm_run_parses_nothing(tree, tmp_path):
    sig = rules_signature(list(all_rules()))
    cache_path = tmp_path / "cache.json"
    cold = _run(tree, ResultCache(cache_path, sig))
    assert cold.parsed_files == cold.num_files > 0
    warm = _run(tree, ResultCache(cache_path, sig))
    assert warm.cached_files == warm.num_files
    assert warm.parsed_files == 0
    assert warm.findings == cold.findings


def test_cache_invalidated_by_edit(tree, tmp_path):
    sig = rules_signature(list(all_rules()))
    cache_path = tmp_path / "cache.json"
    _run(tree, ResultCache(cache_path, sig))
    mod = tree / "repro" / "core" / "mod.py"
    mod.write_text(mod.read_text() + "\n\nBAD = value == 0.15\n")
    warm = _run(tree, ResultCache(cache_path, sig))
    assert warm.parsed_files == 1
    assert [f.rule_id for f in warm.findings] == ["float-eq"]


def test_cache_invalidated_by_rules_signature(tree, tmp_path):
    cache_path = tmp_path / "cache.json"
    _run(tree, ResultCache(cache_path, rules_signature(list(all_rules()))))
    other = _run(tree, ResultCache(cache_path, "deadbeefdeadbeef"))
    assert other.parsed_files == other.num_files


def test_cache_tolerates_corrupt_file(tree, tmp_path):
    cache_path = tmp_path / "cache.json"
    cache_path.write_text("{not json")
    report = _run(tree, ResultCache(cache_path, rules_signature(list(all_rules()))))
    assert report.parsed_files == report.num_files


def test_cache_prunes_deleted_files(tree, tmp_path):
    sig = rules_signature(list(all_rules()))
    cache_path = tmp_path / "cache.json"
    extra = tree / "repro" / "core" / "extra.py"
    extra.write_text('"""Doc."""\n')
    _run(tree, ResultCache(cache_path, sig))
    extra.unlink()
    _run(tree, ResultCache(cache_path, sig))
    data = json.loads(cache_path.read_text())
    assert not any(key.endswith("extra.py") for key in data["files"])


def test_cached_findings_still_pragma_filtered(tree, tmp_path):
    sig = rules_signature(list(all_rules()))
    cache_path = tmp_path / "cache.json"
    mod = tree / "repro" / "core" / "mod.py"
    mod.write_text(mod.read_text() + "\nBAD = value == 0.15  # qa: ignore[float-eq]\n")
    cold = _run(tree, ResultCache(cache_path, sig))
    warm = _run(tree, ResultCache(cache_path, sig))
    assert warm.cached_files == warm.num_files
    assert cold.findings == warm.findings == []


# ----------------------------------------------------------------------
# concurrency facts through cache and baseline
# ----------------------------------------------------------------------


CONC_FIXTURE = dedent(
    '''\
    """Doc."""

    from __future__ import annotations

    import threading

    __all__ = ["Box"]


    class Box:
        """Doc."""

        def __init__(self):
            """Doc."""
            self._lock = threading.Lock()
            self._items = []

        def add(self, x):
            """Doc."""
            with self._lock:
                self._items.append(x)

        def flush(self):
            """Doc."""
            with self._lock:
                self._items = []

        def peek(self):
            """Doc."""
            return self._items
    '''
)


def test_cache_round_trips_concurrency_facts(tree, tmp_path):
    # The concurrency rules are index rules: a warm (parse-free) run
    # answers them from cached ModuleSymbols, so the lock/thread facts
    # must survive the serialization round trip.
    sig = rules_signature(list(all_rules()))
    cache_path = tmp_path / "cache.json"
    (tree / "repro" / "core" / "conc.py").write_text(CONC_FIXTURE)
    cold = _run(tree, ResultCache(cache_path, sig))
    assert [f.rule_id for f in cold.findings] == ["unguarded-shared-state"]
    warm = _run(tree, ResultCache(cache_path, sig))
    assert warm.parsed_files == 0
    assert warm.findings == cold.findings


def test_engine_revision_invalidates_rules_signature(monkeypatch):
    # Caches written before the concurrency facts existed must not
    # satisfy a run that needs them: bumping ENGINE_REVISION (as the
    # concurrency release did) changes the signature, forcing a reparse.
    import repro.qa.cache as cache_mod

    before = rules_signature(list(all_rules()))
    monkeypatch.setattr(cache_mod, "ENGINE_REVISION", cache_mod.ENGINE_REVISION + 1)
    assert rules_signature(list(all_rules())) != before


def test_revision_4_cache_starts_cold(tree, tmp_path, monkeypatch):
    # Revision 4 stored facts and findings as keyed dicts; the codec
    # reads positional lists, so such a cache must never be decoded.
    import repro.qa.cache as cache_mod

    cache_path = tmp_path / "cache.json"
    with monkeypatch.context() as patch:
        patch.setattr(cache_mod, "ENGINE_REVISION", 4)
        old = _run(tree, ResultCache(cache_path, rules_signature(list(all_rules()))))
    assert old.parsed_files == old.num_files > 0
    data = json.loads(cache_path.read_text())
    for entry in data["files"].values():
        entry["facts"] = {"name": entry["facts"][0], "relpath": entry["facts"][1]}
        entry["findings"] = [{"rule": f[0], "severity": f[1]} for f in entry["findings"]]
    cache_path.write_text(json.dumps(data))
    assert cache_mod.ENGINE_REVISION == 6
    sig = rules_signature(list(all_rules()))
    assert data["signature"] != sig
    fresh = _run(tree, ResultCache(cache_path, sig))
    assert fresh.cached_files == 0
    assert fresh.parsed_files == fresh.num_files
    assert fresh.findings == old.findings
    assert json.loads(cache_path.read_text())["signature"] == sig


def test_baseline_workflow_covers_concurrency_rules(tree, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    conc = tree / "repro" / "core" / "conc.py"
    conc.write_text(CONC_FIXTURE)
    baseline = tmp_path / "qa-baseline.txt"
    args = ["--baseline", str(baseline), "--no-cache"]
    assert qa_main(["check", str(tree / "repro"), "--write-baseline", *args]) == 0
    assert "unguarded-shared-state" in baseline.read_text()
    capsys.readouterr()
    # Grandfathered: strict is clean with the baseline in place.
    assert qa_main(["check", str(tree / "repro"), "--strict", *args]) == 0
    capsys.readouterr()
    # Fix the bug at source; --sync prunes the now-stale entry.
    conc.write_text(
        CONC_FIXTURE.replace(
            "return self._items",
            "with self._lock:\n            return self._items",
        )
    )
    code = qa_main(["baseline", str(tree / "repro"), "--sync", "--baseline", str(baseline)])
    assert code == 0
    assert "unguarded-shared-state" not in baseline.read_text()


# ----------------------------------------------------------------------
# baseline sync
# ----------------------------------------------------------------------


def test_baseline_sync_prunes_stale_and_keeps_comments(tmp_path):
    live = _finding()
    stale = _finding(rule="bare-except", line=9)
    path = tmp_path / "qa-baseline.txt"
    path.write_text(
        "# header comment\n"
        "\n"
        f"{live.fingerprint()}  # justified: legacy float compare\n"
        f"{stale.fingerprint()}  # obsolete\n"
    )
    kept, pruned = Baseline.sync(path, [live])
    assert (kept, pruned) == (1, 1)
    text = path.read_text()
    assert "# header comment" in text
    assert "justified: legacy float compare" in text
    assert stale.fingerprint() not in text


def test_baseline_sync_never_adds_entries(tmp_path):
    path = tmp_path / "qa-baseline.txt"
    path.write_text("# empty baseline\n")
    kept, pruned = Baseline.sync(path, [_finding()])
    assert (kept, pruned) == (0, 0)
    assert path.read_text() == "# empty baseline\n"


def test_baseline_sync_missing_file_is_noop(tmp_path):
    assert Baseline.sync(tmp_path / "nope.txt", []) == (0, 0)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_cli_check_sarif_format(tree, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = qa_main(["check", str(tree / "repro"), "--format", "sarif", "--no-cache"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["version"] == "2.1.0"


def test_cli_check_uses_cache_file(tree, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cache = tmp_path / "qa-cache.json"
    assert qa_main(["check", str(tree / "repro"), "--cache", str(cache)]) == 0
    assert cache.exists()
    capsys.readouterr()
    assert qa_main(["check", str(tree / "repro"), "--cache", str(cache), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["parsed"] == 0
    assert payload["cached"] == payload["files"]


def test_cli_fix_applies_and_reports(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "broken.py"
    target.write_text("def f(x=[]):\n    try:\n        return x\n    except:\n        pass\n")
    assert qa_main(["fix", str(target)]) == 0
    out = capsys.readouterr().out
    assert "fixed 2 finding(s) in 1 of 1 file(s)" in out
    fixed = target.read_text()
    assert "x=None" in fixed and "except Exception:" in fixed


def test_cli_fix_dry_run_leaves_file_alone(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "broken.py"
    original = "def f(x=[]):\n    return x\n"
    target.write_text(original)
    assert qa_main(["fix", str(target), "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "would fix" in out and "---" in out
    assert target.read_text() == original


def test_cli_baseline_sync(tree, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    baseline = tmp_path / "qa-baseline.txt"
    baseline.write_text("somerule:gone.py:abcdef012345  # stale entry\n")
    code = qa_main(["baseline", str(tree / "repro"), "--sync", "--baseline", str(baseline)])
    assert code == 0
    assert "pruned 1" in capsys.readouterr().out
    assert "somerule" not in baseline.read_text()


def test_cli_collect_files_skips_configured_dirs(tmp_path):
    (tmp_path / ".venv").mkdir()
    (tmp_path / ".venv" / "junk.py").write_text("x = 1\n")
    (tmp_path / "node_modules").mkdir()
    (tmp_path / "node_modules" / "junk.py").write_text("x = 1\n")
    (tmp_path / "benchmarks" / "out").mkdir(parents=True)
    (tmp_path / "benchmarks" / "out" / "junk.py").write_text("x = 1\n")
    (tmp_path / "benchmarks" / "bench_ok.py").write_text("x = 1\n")
    (tmp_path / "keep.py").write_text("x = 1\n")
    found = {p.name for p in collect_files([tmp_path])}
    assert found == {"keep.py", "bench_ok.py"}


# ----------------------------------------------------------------------
# numeric facts through cache and baseline
# ----------------------------------------------------------------------


NUM_FIXTURE = dedent(
    '''\
    """Doc."""

    from __future__ import annotations

    import numpy as np

    __all__ = ["accumulate"]


    def accumulate(x):
        """Doc.

        dtype: float64
        """
        total = np.zeros(3)
        for i in range(len(x)):
            t = np.ones(3)
            total += t * x[i]
        return total
    '''
)


def test_cache_round_trips_numeric_facts(tree, tmp_path):
    # The numeric rules are index rules too: a warm (parse-free) run
    # answers them from cached ModuleSymbols, so the array-op,
    # scalar-loop, and dtype-policy facts must survive serialization.
    sig = rules_signature(list(all_rules()))
    cache_path = tmp_path / "cache.json"
    (tree / "repro" / "core" / "num.py").write_text(NUM_FIXTURE)
    cold = _run(tree, ResultCache(cache_path, sig))
    assert sorted(f.rule_id for f in cold.findings) == [
        "hot-loop-alloc",
        "scalar-loop",
    ]
    warm = _run(tree, ResultCache(cache_path, sig))
    assert warm.parsed_files == 0
    assert warm.findings == cold.findings


def test_baseline_workflow_covers_numeric_rules(tree, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    num = tree / "repro" / "core" / "num.py"
    num.write_text(NUM_FIXTURE)
    baseline = tmp_path / "qa-baseline.txt"
    args = ["--baseline", str(baseline), "--no-cache"]
    assert qa_main(["check", str(tree / "repro"), "--write-baseline", *args]) == 0
    text = baseline.read_text()
    assert "hot-loop-alloc" in text and "scalar-loop" in text
    capsys.readouterr()
    # Grandfathered: strict is clean with the baseline in place.
    assert qa_main(["check", str(tree / "repro"), "--strict", *args]) == 0
    capsys.readouterr()
    # Vectorize the kernel at source; --sync prunes the stale entries.
    num.write_text(
        NUM_FIXTURE.replace(
            "    total = np.zeros(3)\n"
            "    for i in range(len(x)):\n"
            "        t = np.ones(3)\n"
            "        total += t * x[i]\n"
            "    return total\n",
            "    return np.sum(x)\n",
        )
    )
    code = qa_main(["baseline", str(tree / "repro"), "--sync", "--baseline", str(baseline)])
    assert code == 0
    text = baseline.read_text()
    assert "hot-loop-alloc" not in text and "scalar-loop" not in text
