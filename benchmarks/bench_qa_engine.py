"""Benchmark — static-analysis engine, cold parse vs incremental cache.

A cold ``repro-qa check`` parses every file under ``src/repro`` and
extracts symbol/dataflow facts; a warm run restores both from the
``(mtime, size)``-keyed result cache and re-runs only the index rules.
The warm run must re-parse **zero** unchanged files — that contract is
asserted here, and the speedup is the number the cache earns its
complexity with.

The warm run also carries a *budget*: everything that still executes
warm (index rules — including the concurrency and numeric-kernel
inference — plus cache restore) must finish within
:data:`WARM_BUDGET_FRACTION` of the cold run that primed the cache.
The fraction is ~2x the warm/cold ratio measured when the concurrency
rules landed, so an index rule quietly growing super-linear work fails
the gate instead of eroding the cache's whole point.  (The numeric
facts — like the concurrency facts — are extracted at parse time and
ride the cache, so warm runs answer the numeric rules parse-free too.)

``src/`` is clean, so its warm ≡ cold check compares two empty lists.
:func:`test_qa_engine_warm_matches_cold_on_tests` repeats the check on
``tests/``, whose deliberate rule fixtures yield hundreds of findings:
every finding restored from the cache must equal the cold run's, down
to its baseline fingerprint.
"""

import time

from pathlib import Path

from repro.qa import Analyzer, Baseline, ResultCache, all_rules, rules_signature

from conftest import emit

SRC = Path(__file__).parent.parent / "src" / "repro"
TESTS = Path(__file__).parent.parent / "tests"

#: Warm-run mean must stay within this fraction of the priming cold run.
WARM_BUDGET_FRACTION = 0.20


def _cold_run(tree=SRC):
    analyzer = Analyzer(list(all_rules()), baseline=Baseline())
    return analyzer.run([tree])


def _warm_run(cache_path, tree=SRC):
    cache = ResultCache(cache_path, rules_signature(list(all_rules())))
    analyzer = Analyzer(list(all_rules()), baseline=Baseline(), cache=cache)
    return analyzer.run([tree])


def test_qa_engine_cold(benchmark, out_dir):
    report = benchmark.pedantic(_cold_run, rounds=3, iterations=1, warmup_rounds=1)
    assert report.num_files > 50
    assert report.parsed_files == report.num_files
    emit(
        out_dir,
        "qa_engine_cold.txt",
        f"repro-qa cold run: {report.num_files} files parsed, "
        f"mean {benchmark.stats.stats.mean * 1e3:.1f} ms",
    )


def test_qa_engine_warm_cache(benchmark, tmp_path, out_dir):
    cache_path = tmp_path / "qa-cache.json"
    t0 = time.perf_counter()
    primed = _warm_run(cache_path)  # cold priming run populates the cache
    cold_s = time.perf_counter() - t0
    assert primed.parsed_files == primed.num_files

    report = benchmark.pedantic(_warm_run, args=(cache_path,), rounds=5, iterations=1)
    assert report.num_files == primed.num_files
    assert report.parsed_files == 0, "warm cache run must not re-parse unchanged files"
    assert report.cached_files == report.num_files
    assert report.findings == primed.findings
    warm_s = benchmark.stats.stats.mean
    assert warm_s <= WARM_BUDGET_FRACTION * cold_s, (
        f"warm run blew its budget: {warm_s * 1e3:.1f} ms vs "
        f"{WARM_BUDGET_FRACTION:.0%} of the {cold_s * 1e3:.1f} ms cold run — "
        "an index rule (concurrency or numerics inference?) is doing too much warm work"
    )
    emit(
        out_dir,
        "qa_engine_warm.txt",
        f"repro-qa warm run: {report.cached_files}/{report.num_files} files from cache, "
        f"mean {warm_s * 1e3:.1f} ms "
        f"({warm_s / cold_s:.1%} of the {cold_s * 1e3:.0f} ms cold prime)",
    )


def test_qa_engine_warm_matches_cold_on_tests(tmp_path):
    cold = _cold_run(TESTS)
    assert len(cold.findings) > 100, "tests/ should carry its rule fixtures' findings"
    cache_path = tmp_path / "qa-cache.json"
    primed = _warm_run(cache_path, TESTS)
    warm = _warm_run(cache_path, TESTS)
    assert primed.parsed_files == primed.num_files
    assert warm.parsed_files == 0, "warm cache run must not re-parse unchanged files"
    assert warm.cached_files == warm.num_files == cold.num_files
    for run in (primed, warm):
        assert [f.to_dict() for f in run.findings] == [f.to_dict() for f in cold.findings]
        assert [f.source_line for f in run.findings] == [f.source_line for f in cold.findings]
