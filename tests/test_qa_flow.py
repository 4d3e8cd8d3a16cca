"""Unit tests for the flow-analysis layer under the QA rules.

Covers the intra-procedural CFG builder, the reaching-definitions and
string-constant dataflow analyses, the docstring shape-contract
grammar, and project-wide symbol/call-graph resolution — the machinery
the ``shape-contract``, ``metric-name``, ``cross-module-dead-code``
and ``unused-result`` rules stand on.
"""

from __future__ import annotations

import ast
import json
import textwrap
from pathlib import Path

from repro.qa.callgraph import ROOT, CallGraph, ProjectIndex
from repro.qa.cfg import build_cfg
from repro.qa.codec import decode, encode
from repro.qa.dataflow import UNBOUND, FunctionDataflow
from repro.qa.engine import collect_files
from repro.qa.source import SourceModule
from repro.qa.symbols import (
    ModuleSymbols,
    build_module_symbols,
    parse_shape_contracts,
)

REPO = Path(__file__).resolve().parent.parent


def _fn(source: str) -> ast.FunctionDef:
    tree = ast.parse(textwrap.dedent(source))
    fn = tree.body[0]
    assert isinstance(fn, ast.FunctionDef)
    return fn


def _facts(sources: dict[str, str]) -> list[ModuleSymbols]:
    out = []
    for name, src in sources.items():
        module = SourceModule.from_source(
            textwrap.dedent(src),
            relpath=f"<{name}>",
            name=name,
            is_package=any(other.startswith(name + ".") for other in sources),
        )
        out.append(build_module_symbols(module))
    return out


def _flow(source: str) -> tuple[ast.FunctionDef, FunctionDataflow]:
    fn = _fn(source)
    return fn, FunctionDataflow(fn)


def _last_stmt(fn: ast.FunctionDef) -> ast.stmt:
    return fn.body[-1]


# ----------------------------------------------------------------------
# CFG construction
# ----------------------------------------------------------------------


def test_cfg_straight_line_is_one_block():
    fn = _fn("def f():\n    a = 1\n    b = 2\n    return a + b\n")
    cfg = build_cfg(fn)
    real = [b for b in cfg.blocks if b.statements]
    assert len(real) == 1
    assert len(real[0].statements) == 3


def test_cfg_if_produces_branch_and_join():
    fn = _fn(
        """\
        def f(c):
            if c:
                x = 1
            else:
                x = 2
            return x
        """
    )
    cfg = build_cfg(fn)
    head = next(b for b in cfg.blocks if b.statements and isinstance(b.statements[-1], ast.If))
    assert len(head.successors) == 2


def test_cfg_while_loops_back():
    fn = _fn(
        """\
        def f(n):
            while n:
                n = n - 1
            return n
        """
    )
    cfg = build_cfg(fn)
    head = next(b for b in cfg.blocks if b.statements and isinstance(b.statements[-1], ast.While))
    # One edge enters the body, one bypasses it; the body loops back.
    assert len(head.successors) == 2
    assert any(head.index in b.successors for b in cfg.blocks if b is not head)


def test_cfg_return_ends_the_path():
    fn = _fn(
        """\
        def f(c):
            if c:
                return 1
            return 2
        """
    )
    cfg = build_cfg(fn)
    ret_blocks = [
        b for b in cfg.blocks if b.statements and isinstance(b.statements[-1], ast.Return)
    ]
    assert len(ret_blocks) == 2
    assert all(b.successors == [cfg.exit_index] for b in ret_blocks)


def test_cfg_reverse_postorder_starts_at_entry():
    fn = _fn("def f():\n    return 0\n")
    cfg = build_cfg(fn)
    assert cfg.reverse_postorder()[0] == cfg.entry


# ----------------------------------------------------------------------
# reaching definitions
# ----------------------------------------------------------------------


def test_reaching_defs_branch_join_sees_both_assignments():
    fn, flow = _flow(
        """\
        def f(c):
            if c:
                x = 1
            else:
                x = 2
            return x
        """
    )
    defs = flow.definitions(_last_stmt(fn), "x")
    assert {d.lineno for d in defs} == {3, 5}


def test_reaching_defs_reassignment_kills_previous():
    fn, flow = _flow(
        """\
        def f():
            x = 1
            x = 2
            return x
        """
    )
    defs = flow.definitions(_last_stmt(fn), "x")
    assert {d.lineno for d in defs} == {3}


def test_reaching_defs_maybe_unbound_path_carries_sentinel():
    fn, flow = _flow(
        """\
        def f(c):
            if c:
                x = 1
            return x
        """
    )
    defs = flow.definitions(_last_stmt(fn), "x")
    assert UNBOUND in defs
    assert any(d is not UNBOUND for d in defs)


def test_reaching_defs_parameters_are_defined_at_entry():
    fn, flow = _flow("def f(a, b=1):\n    return a + b\n")
    for name in ("a", "b"):
        defs = flow.definitions(_last_stmt(fn), name)
        assert len(defs) == 1
        assert next(iter(defs)).kind == "param"


# ----------------------------------------------------------------------
# string-constant propagation
# ----------------------------------------------------------------------


def test_string_constants_single_assignment():
    fn, flow = _flow('def f():\n    name = "cpu_user"\n    return name\n')
    assert flow.string_values(_last_stmt(fn), "name") == frozenset({"cpu_user"})


def test_string_constants_branch_union():
    fn, flow = _flow(
        """\
        def f(c):
            name = "cpu_user"
            if c:
                name = "bytes_in"
            return name
        """
    )
    assert flow.string_values(_last_stmt(fn), "name") == frozenset({"cpu_user", "bytes_in"})


def test_string_constants_non_constant_is_nac():
    fn, flow = _flow(
        """\
        def f(raw):
            name = raw.strip()
            return name
        """
    )
    assert flow.string_values(_last_stmt(fn), "name") is None


def test_string_constants_copy_propagation():
    fn, flow = _flow(
        """\
        def f():
            a = "cpu_user"
            b = a
            return b
        """
    )
    assert flow.string_values(_last_stmt(fn), "b") == frozenset({"cpu_user"})


def test_string_constants_loop_reaches_fixpoint():
    fn, flow = _flow(
        """\
        def f(items):
            name = "cpu_user"
            for item in items:
                name = item
            return name
        """
    )
    # The loop body makes it non-constant on at least one path.
    assert flow.string_values(_last_stmt(fn), "name") is None


# ----------------------------------------------------------------------
# shape-contract grammar
# ----------------------------------------------------------------------


def test_contract_grammar_unicode_marker():
    params, ret = parse_shape_contracts("Process the q×m component matrix x.", ["x"])
    assert params == {"x": ("q", "m")}
    assert ret is None


def test_contract_grammar_tuple_marker_with_return():
    params, ret = parse_shape_contracts(
        "Project an ``(m, p)`` input x onto the ``(m, q)`` space.", ["x"]
    )
    assert params == {"x": ("m", "p")}
    assert ret == ("m", "q")


def test_contract_grammar_numpy_sections():
    doc = textwrap.dedent(
        """\
        Do the projection.

        Parameters
        ----------
        x : ndarray
            The ``(m, p)`` samples-by-features input.

        Returns
        -------
        ndarray
            The ``(m, q)`` projection.
        """
    )
    params, ret = parse_shape_contracts(doc, ["x"])
    assert params == {"x": ("m", "p")}
    assert ret == ("m", "q")


def test_contract_grammar_rejects_prose_parentheses():
    params, ret = parse_shape_contracts(
        "Return a pair (package, lineno) for the statement stmt.", ["stmt"]
    )
    assert params == {}
    assert ret is None


def test_contract_grammar_accepts_axis_word_whitelist():
    params, _ = parse_shape_contracts("A samples×features matrix x.", ["x"])
    assert params == {"x": ("samples", "features")}


def test_contract_grammar_no_docstring():
    assert parse_shape_contracts(None, ["x"]) == ({}, None)


# ----------------------------------------------------------------------
# symbols: call sites, purity, metric extraction
# ----------------------------------------------------------------------


def test_symbols_records_discarded_and_used_results():
    (facts,) = _facts(
        {
            "repro.core.mod": """\
                def helper():
                    "doc"
                    return 1

                def run():
                    "doc"
                    helper()
                    y = helper()
                    return y
            """
        }
    )
    sites = [s for s in facts.call_sites if s.callee_name == "helper"]
    assert sorted(s.result_used for s in sites) == [False, True]


def test_symbols_purity_heuristic():
    (facts,) = _facts(
        {
            "repro.core.mod": """\
                def pure(x):
                    "doc"
                    return sorted(x)

                def impure(x):
                    "doc"
                    x.append(1)
                    return x
            """
        }
    )
    by_name = {f.name: f for f in facts.functions}
    assert by_name["pure"].is_pure
    assert not by_name["impure"].is_pure


def test_symbols_methods_marked_and_contracted():
    (facts,) = _facts(
        {
            "repro.core.mod": """\
                class Model:
                    "doc"

                    def fit(self, x):
                        "Fit on an ``(m, p)`` matrix."
                        return self
            """
        }
    )
    fit = next(f for f in facts.functions if f.name == "fit")
    assert fit.is_method
    assert fit.qualname == "repro.core.mod.Model.fit"
    assert fit.shape_of_param("x") == ("m", "p")


def test_symbols_extracts_metric_vocabulary_from_catalog_source():
    (facts,) = _facts(
        {
            "repro.metrics.catalog": """\
                GANGLIA_DEFAULT_METRICS = (
                    _m("cpu_user"),
                    _m("bytes_in"),
                )

                EXPERT_METRIC_NAMES = ("cpu_user", "load_one")
            """
        }
    )
    assert set(facts.metric_names) == {"cpu_user", "bytes_in", "load_one"}


def test_symbols_roundtrip_through_dict():
    # Every module of the repository, concurrency and numeric facts
    # included, must survive the cache's JSON encoding unchanged.
    (fixture,) = _facts(
        {
            "repro.core.mod": """\
                from repro.metrics.series import SnapshotSeries

                __all__ = ["run"]

                def run(x):
                    "Run on a ``(m, p)`` matrix."
                    y = helper(x)
                    return y

                def helper(x):
                    "doc"
                    return x  # qa: ignore[shape-doc]
            """
        }
    )
    files = collect_files(REPO / tree for tree in ("src", "tests", "benchmarks", "examples"))
    facts = [fixture] + [build_module_symbols(SourceModule.parse(path)) for path in files]
    assert any(f.concurrency is not None for f in facts)
    assert any(f.numerics is not None for f in facts)
    for record in facts:
        restored = decode(ModuleSymbols, json.loads(json.dumps(encode(record))))
        assert restored == record, record.relpath


# ----------------------------------------------------------------------
# project index / call graph
# ----------------------------------------------------------------------


def test_index_resolves_reexports_through_package_init():
    facts = _facts(
        {
            "repro.metrics": """\
                from .catalog import metric_index
            """,
            "repro.metrics.catalog": """\
                def metric_index(name):
                    "doc"
                    return 0
            """,
        }
    )
    index = ProjectIndex.build(facts)
    fn = index.resolve("repro.metrics.metric_index")
    assert fn is not None
    assert fn.qualname == "repro.metrics.catalog.metric_index"


def test_callgraph_edges_follow_imports():
    facts = _facts(
        {
            "repro.core.a": """\
                def helper():
                    "doc"
                    return 1
            """,
            "repro.core.b": """\
                from repro.core.a import helper

                def run():
                    "doc"
                    return helper()
            """,
        }
    )
    graph = CallGraph(ProjectIndex.build(facts))
    assert "repro.core.a.helper" in graph.edges["repro.core.b.run"]


def test_callgraph_unresolved_bare_name_roots_all_matches():
    facts = _facts(
        {
            "repro.core.a": """\
                def helper():
                    "doc"
                    return 1
            """,
            "repro.core.b": """\
                def run(helper):
                    "doc"
                    return helper()
            """,
        }
    )
    graph = CallGraph(ProjectIndex.build(facts))
    assert "repro.core.a.helper" in graph.edges[ROOT]


def test_callgraph_reachable_excludes_orphans():
    facts = _facts(
        {
            "repro.core.a": """\
                __all__ = ["api"]

                def api():
                    "doc"
                    return _impl()

                def _impl():
                    "doc"
                    return 1

                def _orphan():
                    "doc"
                    return 2
            """,
        }
    )
    graph = CallGraph(ProjectIndex.build(facts))
    live = graph.reachable(roots=(ROOT, "repro.core.a.api"))
    assert "repro.core.a._impl" in live
    assert "repro.core.a._orphan" not in live
