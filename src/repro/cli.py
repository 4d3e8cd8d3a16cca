"""Command-line interface: regenerate any paper artefact from a shell.

Usage::

    python -m repro list-apps
    python -m repro classify postmark [--seed N] [--mem MB]
    python -m repro table3 [--fast]
    python -m repro table4
    python -m repro fig3
    python -m repro fig4 [--horizon S]
    python -m repro cost [--samples N]
    python -m repro obs dump [--app KEY] [--format prometheus|json|trace] [--trace ID]
    python -m repro obs serve [--app KEY] [--port N] [--duration S] [--profile]
    python -m repro obs profile [--app KEY] [--interval S] [--output FILE]
    python -m repro obs top [--app KEY] [--window S]
    python -m repro obs slo [--app KEY]
    python -m repro obs reset

Every command trains the classifier from scratch (a few seconds) so the
tool is fully self-contained.
"""

from __future__ import annotations

import argparse
from typing import Sequence

from . import obs
from .analysis.clustering import ClusterDiagram
from .analysis.reports import render_bar_chart, render_table3, render_table4
from .experiments.cost import collect_snapshot_pool, measure_cost
from .experiments.fig3 import run_fig3
from .experiments.fig45 import run_fig45
from .experiments.table3 import run_table3
from .experiments.table4 import run_table4
from .experiments.training import build_trained_classifier
from .manager.service import ResourceManager
from .sim.execution import profiled_run
from .workloads.catalog import all_keys, entry, test_entries


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce Zhang & Figueiredo (IPDPS 2006): application "
        "classification from resource consumption patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-apps", help="list catalog applications")

    p = sub.add_parser("classify", help="profile and classify one application")
    p.add_argument("app", help="catalog key (see list-apps)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--mem", type=float, default=None, help="VM memory override (MB)")
    p.add_argument("--diagram", action="store_true", help="print the PC-space diagram")

    p = sub.add_parser("table3", help="regenerate Table 3 (all 14 test runs)")
    p.add_argument("--fast", action="store_true", help="skip the two long SPECseis runs")

    sub.add_parser("table4", help="regenerate Table 4 (concurrent vs sequential)")
    sub.add_parser("fig3", help="regenerate Figure 3 cluster diagrams")

    p = sub.add_parser("fig4", help="regenerate Figures 4 and 5 (schedule throughput)")
    p.add_argument("--horizon", type=float, default=2400.0)

    p = sub.add_parser("cost", help="regenerate the §5.3 classification-cost study")
    p.add_argument("--samples", type=int, default=8000)

    p = sub.add_parser(
        "validate", help="confusion matrix over randomly generated workloads"
    )
    p.add_argument("--per-class", type=int, default=3)
    p.add_argument("--seed", type=int, default=77)

    p = sub.add_parser("stages", help="stage timeline of one application run")
    p.add_argument("app", help="catalog key (see list-apps)")
    p.add_argument("--mem", type=float, default=None, help="VM memory override (MB)")
    p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser(
        "obs", help="observability: dump, serve, watch, or reset the telemetry plane"
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    def _obs_run_args(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--app", default="postmark", help="catalog key to profile (see list-apps)"
        )
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--mem", type=float, default=None, help="VM memory override (MB)")
        sp.add_argument(
            "--no-run",
            action="store_true",
            help="use whatever the process-local registry already holds, without running",
        )

    d = obs_sub.add_parser(
        "dump",
        help="profile + learn one application with collection on, then dump all metrics",
    )
    _obs_run_args(d)
    d.add_argument(
        "--format", choices=("prometheus", "json", "trace", "events"), default="prometheus"
    )
    d.add_argument(
        "--output", default=None, help="write the dump to FILE instead of stdout"
    )
    d.add_argument(
        "--trace",
        type=int,
        default=None,
        help="with --format trace: render only this request trace id",
    )

    s = obs_sub.add_parser(
        "serve",
        help="expose /metrics, /healthz, /readyz, /tracez, /eventz over HTTP",
    )
    _obs_run_args(s)
    s.add_argument("--host", default="127.0.0.1")
    s.add_argument("--port", type=int, default=0, help="bind port (0 = OS-assigned)")
    s.add_argument(
        "--interval", type=float, default=1.0, help="recorder scrape cadence (seconds)"
    )
    s.add_argument(
        "--duration",
        type=float,
        default=None,
        help="serve for this many seconds then exit (default: until Ctrl-C)",
    )
    s.add_argument(
        "--profile",
        action="store_true",
        help="run the sampling profiler and expose its stacks on /profilez",
    )

    pf = obs_sub.add_parser(
        "profile",
        help="sample the profiled run with the stdlib profiler; print folded stacks",
    )
    _obs_run_args(pf)
    pf.add_argument(
        "--interval",
        type=float,
        default=None,
        help="sampling interval in seconds (default: REPRO_OBS_PROFILER_INTERVAL or 0.01)",
    )
    pf.add_argument(
        "--output", default=None, help="write the collapsed stacks to FILE instead of stdout"
    )

    t = obs_sub.add_parser("top", help="snapshot table of recorded metric series")
    _obs_run_args(t)
    t.add_argument(
        "--window", type=float, default=3600.0, help="statistics window (seconds)"
    )

    sl = obs_sub.add_parser("slo", help="evaluate the default SLO monitor rules")
    _obs_run_args(sl)

    obs_sub.add_parser("reset", help="drop every collected metric, span, and event")

    return parser


def _cmd_list_apps() -> int:
    print("catalog keys (training + test):")
    for key in all_keys():
        e = entry(key)
        role = f"training→{e.training_class}" if e.training_class else "test"
        print(f"  {key:22s} {role:15s} {e.expected_behavior}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    try:
        e = entry(args.app)
    except KeyError:
        print(f"error: unknown application {args.app!r}; run `repro list-apps`")
        return 2
    classifier = build_trained_classifier(seed=0).classifier
    mem = args.mem if args.mem is not None else e.vm_mem_mb
    run = profiled_run(e.build(), vm_mem_mb=mem, seed=args.seed)
    result = classifier.classify_series(run.series)
    print(render_table3([(args.app, result)]))
    print(f"\nclass: {result.application_class.name}   category: {result.category}")
    print(f"runtime: {run.duration:.0f} s   samples: {result.num_samples}")
    if args.diagram:
        print()
        print(ClusterDiagram.from_result(result, title=args.app).render_ascii(64, 18))
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    classifier = build_trained_classifier(seed=0).classifier
    keys = None
    if args.fast:
        keys = [e.key for e in test_entries() if e.key not in ("specseis96-A", "specseis96-B")]
    outcome = run_table3(classifier, seed=100, keys=keys)
    print(render_table3(outcome.named_results()))
    return 0


def _cmd_table4() -> int:
    outcome = run_table4(seed=300)
    concurrent, sequential = outcome.as_mappings()
    print(render_table4(concurrent, sequential))
    print(f"concurrent finishes both jobs {outcome.speedup_percent:.1f}% sooner")
    return 0


def _cmd_fig3() -> int:
    classifier = build_trained_classifier(seed=0).classifier
    outcome = run_fig3(classifier, seed=200)
    for diagram in outcome.all_diagrams():
        print(diagram.render_ascii(72, 18))
        print()
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    outcome = run_fig45(horizon=args.horizon, seed=400)
    labels = [f"{r.schedule.number:2d} {r.schedule.label()}" for r in outcome.results]
    values = [r.system_jobs_per_day for r in outcome.results]
    print(render_bar_chart(labels, values, width=40, unit=" jobs/day"))
    print(f"\nSPN improvement over weighted average: {outcome.spn_improvement_percent():.2f}%")
    for s in outcome.per_app:
        print(
            f"  {s.code}: min {s.minimum:.0f}  max {s.maximum:.0f}  avg {s.average:.0f}  "
            f"spn {s.spn:.0f} ({s.spn_gain_over_average_percent:+.1f}%)"
        )
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    print(f"collecting {args.samples} snapshots of a looping SPECseis96 VM ...")
    pool = collect_snapshot_pool(num_samples=args.samples, seed=500)
    classifier = build_trained_classifier(seed=0).classifier
    cost = measure_cost(classifier, pool)
    print(f"samples:   {cost.num_samples}")
    print(f"filter:    {cost.filter_s * 1000:.1f} ms")
    print(f"PCA/train: {cost.train_s * 1000:.1f} ms")
    print(f"classify:  {cost.classify_s * 1000:.1f} ms")
    print(f"unit cost: {cost.per_sample_ms:.4f} ms/sample (paper: 15 ms/sample)")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .experiments.validation import validate_workloads
    from .workloads.synth import generate_suite

    suite = generate_suite(per_class=args.per_class, seed=args.seed)
    print(f"validating on {len(suite)} randomly generated workloads ...")
    classifier = build_trained_classifier(seed=0).classifier
    report = validate_workloads(classifier, suite, seed=args.seed + 500)
    print(report.matrix.render())
    print(f"\nrun-level accuracy: {report.matrix.accuracy() * 100:.0f}%")
    for r in report.misclassified():
        print(f"  miss: {r.workload_name} intended {r.truth.name}, got {r.predicted.name}")
    return 0


def _cmd_stages(args: argparse.Namespace) -> int:
    from .analysis.timeline import render_stage_summary, render_timeline
    from .core.stages import find_migration_opportunities, segment_stages

    try:
        e = entry(args.app)
    except KeyError:
        print(f"error: unknown application {args.app!r}; run `repro list-apps`")
        return 2
    classifier = build_trained_classifier(seed=0).classifier
    mem = args.mem if args.mem is not None else e.vm_mem_mb
    run = profiled_run(e.build(), vm_mem_mb=mem, seed=args.seed)
    result = classifier.classify_series(run.series)
    print(render_timeline(result, timestamps=run.series.timestamps))
    print()
    analysis = segment_stages(result, run.series, smoothing_window=3)
    print(render_stage_summary(analysis))
    opportunities = find_migration_opportunities(analysis, min_stage_duration_s=60.0)
    print(f"\nmigration opportunities (≥60 s stages, class change): {len(opportunities)}")
    return 0


def _obs_profile(args: argparse.Namespace) -> int:
    """Profile + learn the requested app with collection on; 0 on success.

    The run is wrapped in a request trace so its spans carry a trace id
    (exemplars in ``/metrics.json``, filterable via ``--trace``).
    """
    try:
        e = entry(args.app)
    except KeyError:
        print(f"error: unknown application {args.app!r}; run `repro list-apps`")
        return 2
    manager = ResourceManager(seed=args.seed)
    mem = args.mem if args.mem is not None else e.vm_mem_mb
    registry = obs.get_registry()
    ctx = registry.start_trace("cli.profile", mark="cli.begin")
    with obs.span("cli.profile_and_learn", parent=ctx):
        manager.profile_and_learn(args.app, e.build(), vm_mem_mb=mem)
    if ctx:
        registry.finish_trace(ctx, registry.clock())
    return 0


def _cmd_obs_dump(args: argparse.Namespace) -> int:
    registry = obs.get_registry()
    if args.format == "json":
        text = obs.render_json(registry) + "\n"
    elif args.format == "trace":
        rendered = obs.render_trace(registry.spans(), trace_id=args.trace)
        text = rendered + "\n" if rendered else ""
    elif args.format == "events":
        text = obs.render_events_jsonl(registry.events())
    else:
        text = obs.render_prometheus(registry)
    if args.output is not None:
        from pathlib import Path

        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {len(text)} bytes to {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_obs_serve(
    args: argparse.Namespace, profiler: "obs.SamplingProfiler | None" = None
) -> int:
    import threading

    registry = obs.get_registry()
    recorder = obs.MetricsRecorder(registry, interval_s=args.interval)
    recorder.sample()
    server = obs.TelemetryServer(
        recorder=recorder, host=args.host, port=args.port, profiler=profiler
    ).start()
    recorder.start()
    print(f"serving telemetry on {server.url}", flush=True)
    endpoints = "endpoints: /metrics /metrics.json /healthz /readyz /tracez /eventz"
    if profiler is not None:
        endpoints += " /profilez"
    print(endpoints, flush=True)
    try:
        if args.duration is not None:
            threading.Event().wait(args.duration)
        else:
            while True:
                threading.Event().wait(3600.0)
    except KeyboardInterrupt:
        pass
    finally:
        recorder.stop()
        server.stop()
        if profiler is not None:
            profiler.stop()
    print("telemetry server stopped")
    return 0


def _cmd_obs_profile_verb(args: argparse.Namespace) -> int:
    """Run the profiled workload under the sampling profiler."""
    profiler = obs.SamplingProfiler(interval_s=args.interval)
    profiler.start()
    try:
        if not args.no_run:
            status = _obs_profile(args)
            if status != 0:
                return status
    finally:
        profiler.stop()
    text = profiler.render_collapsed()
    if args.output is not None:
        from pathlib import Path

        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {profiler.samples} samples to {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_obs_top(args: argparse.Namespace, recorder: "obs.MetricsRecorder") -> int:
    recorder.sample()
    print(obs.render_top(recorder, window_s=args.window))
    return 0


def _cmd_obs_slo(args: argparse.Namespace, recorder: "obs.MetricsRecorder") -> int:
    from repro.obs.slo import render_results, worst

    recorder.sample()
    results = obs.evaluate(obs.default_rules(), recorder)
    print(render_results(results))
    return 1 if worst(results) is obs.Verdict.PAGE else 0


def _cmd_obs(args: argparse.Namespace) -> int:
    if args.obs_command == "reset":
        obs.reset()
        print("observability registry reset")
        return 0
    obs.enable()
    if args.obs_command == "profile":
        # The profiler must be live *during* the run, so this verb
        # handles --no-run itself instead of the shared path below.
        return _cmd_obs_profile_verb(args)
    # With `serve --profile` the sampler likewise starts ahead of the
    # profiled run, so /profilez already holds the run's stacks.
    profiler = None
    if args.obs_command == "serve" and args.profile:
        profiler = obs.SamplingProfiler()
        profiler.start()
    # top/slo bracket the profiled run with two scrapes so windowed
    # rates cover the run itself.
    recorder = None
    if args.obs_command in ("top", "slo"):
        recorder = obs.MetricsRecorder(obs.get_registry())
        recorder.sample()
    if not args.no_run:
        status = _obs_profile(args)
        if status != 0:
            if profiler is not None:
                profiler.stop()
            return status
    if args.obs_command == "dump":
        return _cmd_obs_dump(args)
    if args.obs_command == "serve":
        return _cmd_obs_serve(args, profiler)
    if args.obs_command == "top":
        assert recorder is not None
        return _cmd_obs_top(args, recorder)
    if args.obs_command == "slo":
        assert recorder is not None
        return _cmd_obs_slo(args, recorder)
    raise AssertionError(f"unhandled obs command {args.obs_command!r}")


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list-apps":
        return _cmd_list_apps()
    if args.command == "classify":
        return _cmd_classify(args)
    if args.command == "table3":
        return _cmd_table3(args)
    if args.command == "table4":
        return _cmd_table4()
    if args.command == "fig3":
        return _cmd_fig3()
    if args.command == "fig4":
        return _cmd_fig4(args)
    if args.command == "cost":
        return _cmd_cost(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "stages":
        return _cmd_stages(args)
    if args.command == "obs":
        return _cmd_obs(args)
    raise AssertionError(f"unhandled command {args.command!r}")
