"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.qa.cli import main as qa_main


def test_list_apps(capsys):
    assert main(["list-apps"]) == 0
    out = capsys.readouterr().out
    assert "train-postmark" in out
    assert "specseis96-B" in out
    assert "training→MEM" in out


def test_classify_known_app(capsys):
    assert main(["classify", "xspim", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "class:" in out
    assert "xspim" in out


def test_classify_with_diagram(capsys):
    assert main(["classify", "xspim", "--diagram"]) == 0
    out = capsys.readouterr().out
    assert "+" in out  # diagram border


def test_classify_unknown_app(capsys):
    assert main(["classify", "fortnite"]) == 2
    assert "unknown application" in capsys.readouterr().out


def test_classify_memory_override(capsys):
    assert main(["classify", "ch3d", "--mem", "128"]) == 0


def test_table3_fast(capsys):
    assert main(["table3", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "postmark-nfs" in out
    assert "specseis96-A" not in out


def test_table4(capsys):
    assert main(["table4"]) == 0
    out = capsys.readouterr().out
    assert "Concurrent" in out
    assert "sooner" in out


def test_fig4_short_horizon(capsys):
    assert main(["fig4", "--horizon", "600"]) == 0
    out = capsys.readouterr().out
    assert "{(SPN),(SPN),(SPN)}" in out
    assert "SPN improvement" in out


def test_cost_small(capsys):
    assert main(["cost", "--samples", "200"]) == 0
    out = capsys.readouterr().out
    assert "unit cost" in out


def test_validate_small(capsys):
    assert main(["validate", "--per-class", "1", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "run-level accuracy" in out
    assert "IDLE" in out  # confusion matrix header


def test_stages_command(capsys):
    assert main(["stages", "xspim"]) == 0
    out = capsys.readouterr().out
    assert "stages, dominant" in out
    assert "migration opportunities" in out


def test_stages_unknown_app(capsys):
    assert main(["stages", "crysis"]) == 2


# ----------------------------------------------------------------------
# repro obs — telemetry plane verbs
# ----------------------------------------------------------------------


@pytest.fixture()
def _obs_cleanup():
    from repro import obs

    yield
    obs.disable()


def test_obs_dump_to_file(tmp_path, capsys, _obs_cleanup):
    target = tmp_path / "metrics.prom"
    assert main(["obs", "dump", "--no-run", "--output", str(target)]) == 0
    assert str(target) in capsys.readouterr().out
    assert target.exists()


def test_obs_dump_events_format(capsys, _obs_cleanup):
    from repro import obs

    obs.enable()
    obs.event("cli.test", k="v")
    assert main(["obs", "dump", "--no-run", "--format", "events"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out.splitlines()[0])["name"] == "cli.test"


def test_obs_top_no_run(capsys, _obs_cleanup):
    assert main(["obs", "top", "--no-run"]) == 0
    assert "no series recorded" in capsys.readouterr().out


def test_obs_slo_no_run(capsys, _obs_cleanup):
    assert main(["obs", "slo", "--no-run"]) == 0
    out = capsys.readouterr().out
    assert "online-drop-rate" in out
    assert "overall: OK" in out


def test_obs_serve_short_duration(capsys, _obs_cleanup):
    assert main(
        ["obs", "serve", "--no-run", "--duration", "0.05", "--port", "0"]
    ) == 0
    out = capsys.readouterr().out
    assert "serving telemetry on http://127.0.0.1:" in out
    assert "telemetry server stopped" in out


def test_missing_command_exits():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("verb", ["serve", "ingest"])
def test_bench_verbs_are_gone(verb, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([verb, "bench"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_module_entry_point():
    import repro.__main__  # noqa: F401  (import side effects only under __main__)


# ----------------------------------------------------------------------
# python -m repro.qa check — smoke coverage
# ----------------------------------------------------------------------


def test_qa_check_clean_file_exits_zero(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text('"""A clean module."""\n\nVALUE = 1\n')
    assert qa_main(["check", str(clean), "--no-baseline", "--strict"]) == 0
    assert "0 errors, 0 warnings" in capsys.readouterr().out


def test_qa_check_seeded_violation_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text('"""doc."""\n\n\ndef f(x=[]):\n    return x\n')
    assert qa_main(["check", str(bad), "--no-baseline"]) == 1
    out = capsys.readouterr().out
    assert "mutable-default" in out
    assert "bad.py:4" in out


def test_qa_check_json_output_parses(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text('"""doc."""\n\n__all__ = ["f"]\n\n\ndef f(x=[]):\n    return x\n')
    assert qa_main(["check", str(bad), "--no-baseline", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["error"] == 1
    (finding,) = payload["findings"]
    assert finding["rule"] == "mutable-default"
    assert finding["line"] == 6
    assert finding["fingerprint"].startswith("mutable-default:")


def test_qa_check_baseline_grandfathers_finding(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text('"""doc."""\n\n__all__ = ["f"]\n\n\ndef f(x=[]):\n    return x\n')
    baseline = tmp_path / "baseline.txt"
    assert qa_main(["check", str(bad), "--baseline", str(baseline), "--write-baseline"]) == 0
    capsys.readouterr()
    assert qa_main(["check", str(bad), "--baseline", str(baseline), "--strict"]) == 0
    assert "1 baselined" in capsys.readouterr().out


def test_qa_rules_lists_every_rule(capsys):
    assert qa_main(["rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("determinism", "layering", "shape-doc", "float-eq", "dead-code"):
        assert rule_id in out


def test_qa_check_unreadable_path_exits_two(tmp_path, capsys):
    assert qa_main(["check", str(tmp_path / "missing.py"), "--no-baseline"]) == 2
