"""Command-line interface: run workflows, analyze persisted runs.

Usage::

    perfrecup run imageprocessing --runs 3 --scale 0.1 --out ./results
    perfrecup analyze ./results/imageprocessing/run0000
    perfrecup compare ./results/xgboost
    perfrecup provenance ./results/xgboost/run0000 --key <task-key>
    perfrecup list-workflows

Every reporting subcommand shares one output option pair: ``--out``
(output file or directory) and ``--format text|json``.  The only
fan-out setting is ``perfrecup run --workers N``, which runs
repetitions on a process pool.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import (
    AnalysisSession,
    comm_scatter,
    comm_summary,
    fig4_svg,
    fig5_svg,
    fig6_svg,
    fig7_svg,
    format_records,
    io_timeline,
    longest_categories,
    parallel_coordinates,
    phase_breakdown,
    render_provenance,
    task_provenance,
    warning_histogram,
    write_svg,
)

WORKFLOWS = {
    "imageprocessing": "ImageProcessingWorkflow",
    "resnet152": "ResNet152Workflow",
    "xgboost": "XGBoostWorkflow",
}


def _workflow_factory(name: str, scale: float):
    import functools

    from . import workflows as wf_module
    try:
        cls = getattr(wf_module, WORKFLOWS[name.lower()])
    except KeyError:
        raise SystemExit(
            f"unknown workflow {name!r}; choose from {sorted(WORKFLOWS)}"
        )
    # partial, not a lambda: the factory must pickle for the process
    # pool of ``run_many``.
    return functools.partial(cls, scale=scale)


def _deliver(args: argparse.Namespace, text: str, document) -> int:
    """Common output contract of the analysis subcommands.

    ``--format json`` serialises ``document`` instead of ``text``;
    ``--out FILE`` writes the payload there (printing the path) instead
    of stdout.
    """
    if getattr(args, "format", "text") == "json":
        payload = json.dumps(document, indent=2, default=str)
    else:
        payload = text
    out = getattr(args, "out", None)
    if out:
        os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
        print(out)
    else:
        print(payload)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from .workflows import run_many
    factory = _workflow_factory(args.workflow, args.scale)
    results = run_many(factory, n_runs=args.runs, seed=args.seed,
                       persist_dir=args.out, workers=args.workers)
    rows = []
    for result in results:
        breakdown = phase_breakdown(result.data)
        rows.append({
            "run": result.run_index,
            "wall_s": round(result.wall_time, 2),
            "io_s": round(breakdown.io, 2),
            "comm_s": round(breakdown.communication, 2),
            "compute_s": round(breakdown.computation, 2),
            "dir": result.run_dir or "(in-memory)",
        })
    print(format_records(rows, title=f"{args.workflow}: {args.runs} runs "
                                     f"at scale {args.scale}"))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from .core import format_gap_report, metadata_gaps

    session = AnalysisSession.of(args.run_dir)
    breakdown = phase_breakdown(session)
    categories = longest_categories(session.task_view(),
                                    top=args.top).to_records()
    summary = comm_summary(session.comm_view())
    hist = warning_histogram(session.warning_view(),
                             bucket=args.bucket).to_records()
    darshan = session.run.darshan.summary()
    gaps = metadata_gaps(session)

    sections = [
        format_records([breakdown.as_dict()], title="Phase breakdown"),
        format_records(categories,
                       title=f"Longest task categories (top {args.top})"),
        format_records(
            [{"locality": k, **v} for k, v in summary.items()
             if isinstance(v, dict)],
            title="Communication summary"),
        format_records(hist,
                       title=f"Warnings per {args.bucket:.0f}s bucket"),
        format_records([darshan], title="Darshan summary"),
        format_gap_report(gaps),
    ]
    document = {
        "run_dir": args.run_dir,
        "phase_breakdown": breakdown.as_dict(),
        "longest_categories": categories,
        "comm_summary": summary,
        "warning_histogram": hist,
        "darshan": darshan,
        "gaps": gaps,
    }
    return _deliver(args, "\n\n".join(sections), document)


def cmd_provenance(args: argparse.Namespace) -> int:
    session = AnalysisSession.of(args.run_dir)
    if args.key is None:
        tasks = session.task_view().sort_by("duration", descending=True)
        key = tasks["key"][0]
        print("(no --key given; showing the longest task)\n")
    else:
        key = args.key
    print(render_provenance(task_provenance(session, key),
                            max_items=args.max_items))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Cross-run variability report over several persisted runs."""
    import glob

    from .core import compare_runs, variability_report

    run_dirs = sorted(
        d for d in glob.glob(os.path.join(args.runs_dir, "run*"))
        if os.path.isdir(d)
    )
    if len(run_dirs) < 2:
        raise SystemExit(
            f"need at least two run directories under {args.runs_dir}")
    report = variability_report(run_dirs)
    stats = report["phases"]
    by_prefix = report["by_prefix"].head(args.top).to_records()
    views = [session.task_view() for session in report["sessions"]]
    comparison = compare_runs(views).to_records()

    sections = [
        format_records(
            [stats[p].as_dict()
             for p in ("io", "communication", "computation", "total")],
            title=f"Phase variability over {len(run_dirs)} runs"),
        format_records(by_prefix,
                       title="Task categories by cross-run variability"),
        format_records(
            comparison,
            title="Pairwise scheduling comparison "
                  "(agreement=same placement, distance=order drift)"),
    ]
    document = {
        "runs_dir": args.runs_dir,
        "n_runs": len(run_dirs),
        "phases": {p: stats[p].as_dict()
                   for p in ("io", "communication", "computation",
                             "total")},
        "normalized": stats["normalized"],
        "by_prefix": by_prefix,
        "scheduling_comparison": comparison,
    }
    return _deliver(args, "\n\n".join(sections), document)


def cmd_figures(args: argparse.Namespace) -> int:
    """Render the paper-style SVG figures for one persisted run."""
    session = AnalysisSession.of(args.run_dir)
    out = args.out or os.path.join(args.run_dir, "figures")
    written = [
        write_svg(fig4_svg(io_timeline(session.io_view())),
                  os.path.join(out, "per_thread_io.svg")),
        write_svg(fig5_svg(comm_scatter(session.comm_view())),
                  os.path.join(out, "comm_scatter.svg")),
        write_svg(fig6_svg(parallel_coordinates(session.task_view())),
                  os.path.join(out, "parallel_coordinates.svg")),
        write_svg(fig7_svg(warning_histogram(session.warning_view(),
                                             bucket=args.bucket)),
                  os.path.join(out, "warning_distribution.svg")),
    ]
    if args.format == "json":
        print(json.dumps({"written": written}, indent=2))
    else:
        for path in written:
            print(path)
    return 0


def cmd_zoom(args: argparse.Namespace) -> int:
    """Summarize everything inside one time window of a run."""
    from .core import zoom

    session = AnalysisSession.of(args.run_dir)
    end = args.end if args.end is not None else session.wall_time
    window = zoom(session, args.start, end)
    lines = [format_records([{
        k: v for k, v in window.stats.items()
        if k not in ("window", "prefixes_active")
    }], title=f"Window [{args.start:.1f}s, {end:.1f}s)")]
    lines.append(f"\nactive categories: "
                 f"{', '.join(window.stats['prefixes_active']) or '(none)'}")
    if len(window.warnings):
        lines.append(f"warnings in window: {len(window.warnings)}")
    return _deliver(args, "\n".join(lines), window.stats)


def cmd_report(args: argparse.Namespace) -> int:
    """Write a standalone HTML report for one persisted run."""
    from .core import write_html_report

    session = AnalysisSession.of(args.run_dir)
    out = args.out or os.path.join(args.run_dir, "report.html")
    path = write_html_report(session, out,
                             title=f"PERFRECUP report: {args.run_dir}")
    if args.format == "json":
        print(json.dumps({"written": [path]}, indent=2))
    else:
        print(path)
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Static determinism + provenance-schema analysis over the tree."""
    import os

    from .analysis import (
        EXIT_ERROR,
        LintEngine,
        load_baseline,
        prune_baseline,
        rules_for,
        write_baseline,
    )

    paths = args.paths
    if not paths:
        # Default target: the installed repro package itself.
        paths = [os.path.dirname(os.path.abspath(__file__))]
    root = os.path.commonpath([os.path.abspath(p) for p in paths])
    if os.path.isfile(root):
        root = os.path.dirname(root)

    selectors = None
    if args.rules:
        selectors = [token.strip() for token in args.rules.split(",")
                     if token.strip()]
    try:
        rules = rules_for(selectors)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return EXIT_ERROR

    baseline = set()
    if args.baseline and os.path.exists(args.baseline):
        baseline = load_baseline(args.baseline)

    engine = LintEngine(rules=rules, baseline=baseline, root=root)
    try:
        report = engine.run(paths)
    except (FileNotFoundError, SyntaxError) as exc:
        print(f"lint failed: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if args.write_baseline:
        count = write_baseline(report, args.write_baseline, root)
        print(f"wrote {count} baseline entr{'y' if count == 1 else 'ies'} "
              f"to {args.write_baseline}")
        return 0

    if args.prune_baseline:
        if not args.baseline:
            print("--prune-baseline requires --baseline", file=sys.stderr)
            return EXIT_ERROR
        kept, dropped = prune_baseline(report, args.baseline, root)
        print(f"pruned baseline {args.baseline}: kept {kept}, "
              f"dropped {dropped} stale entr{'y' if dropped == 1 else 'ies'}")
        return 0

    stale = report.stats.get("stale_baseline_entries", 0)
    if stale:
        print(f"warning: {stale} baseline entr"
              f"{'y matches' if stale == 1 else 'ies match'} no finding "
              f"in {args.baseline}; run with --prune-baseline",
              file=sys.stderr)

    if args.format == "json":
        print(report.render_json())
    else:
        print(report.render_text(verbose=args.verbose))
    return report.exit_code


def cmd_sanitize(args: argparse.Namespace) -> int:
    """Run one workflow under the runtime event-ordering sanitizer."""
    from .analysis import EventOrderSanitizer
    from .workflows import run_workflow

    factory = _workflow_factory(args.workflow, args.scale)
    sanitizer = EventOrderSanitizer()
    run_workflow(factory(), seed=args.seed, monitor=sanitizer)
    report = sanitizer.report()
    _deliver(args, report.render_text(),
             json.loads(report.render_json()))
    return report.exit_code


def cmd_faults(args: argparse.Namespace) -> int:
    """Run one workflow under a fault schedule; print the recovery story."""
    from .faults import FaultSchedule
    from .workflows import run_workflow

    factory = _workflow_factory(args.workflow, args.scale)
    try:
        schedule = FaultSchedule.from_specs(args.fault or [])
    except ValueError as exc:
        print(f"bad --fault spec: {exc}", file=sys.stderr)
        return 2
    result = run_workflow(factory(), seed=args.seed, faults=schedule)
    session = AnalysisSession.of(result.data)
    report = session.resilience_report()

    document = {
        "workflow": args.workflow,
        "seed": args.seed,
        "schedule": schedule.describe(),
        "wall_time_s": round(result.wall_time, 3),
        **{key: report[key] for key in (
            "n_faults", "faults", "recomputed_tasks", "retried_tasks",
            "total_retries", "retry_histogram", "recovery",
            "fault_warnings")},
    }
    lines = [
        f"{args.workflow}: {report['n_faults']} fault(s) fired, "
        f"wall time {result.wall_time:.2f}s",
        f"recomputed tasks: {report['recomputed_tasks']}  "
        f"retried tasks: {report['retried_tasks']} "
        f"({report['total_retries']} retries)",
    ]
    rows = [{
        "fault": f"{entry['kind']}@{entry['time']:.1f}",
        "target": entry["target"],
        "detected_s": "-" if entry["detected_after"] is None
        else f"{entry['detected_after']:.2f}",
        "recovered_s": "-" if entry["recovered_after"] is None
        else f"{entry['recovered_after']:.2f}",
        "warnings": window["n_warnings"],
    } for entry, window in zip(report["recovery"],
                               report["fault_warnings"])]
    if rows:
        lines.append(format_records(rows, title="recovery per fault"))
    return _deliver(args, "\n".join(lines), document)


def _run_with_telemetry(args: argparse.Namespace):
    """Shared driver of ``trace``/``metrics``: one instrumented run."""
    from .telemetry import Telemetry
    from .workflows import run_workflow

    factory = _workflow_factory(args.workflow, args.scale)
    telemetry = Telemetry(interval=args.interval,
                          run_name=args.workflow, seed=args.seed)
    run_workflow(factory(), seed=args.seed, telemetry=telemetry)
    return telemetry


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one workflow and emit its span trace as Chrome trace JSON."""
    telemetry = _run_with_telemetry(args)
    document = telemetry.chrome_trace()
    text = (f"{args.workflow}: {len(document['traceEvents'])} trace "
            f"events (use --format json, or --out, for the Chrome "
            f"trace itself)")
    return _deliver(args, text, document)


def cmd_metrics(args: argparse.Namespace) -> int:
    """Run one workflow and dump its sampled telemetry series."""
    telemetry = _run_with_telemetry(args)
    records = telemetry.metrics_records()

    summary: dict[str, dict] = {}
    for row in records:
        entry = summary.setdefault(row["metric"], {
            "metric": row["metric"], "kind": row["kind"],
            "series": set(), "rows": 0, "last": 0.0,
        })
        entry["series"].add(row["labels"])
        entry["rows"] += 1
        entry["last"] = row["value"]
    rows = [{**summary[name], "series": len(summary[name]["series"])}
            for name in sorted(summary)]
    text = format_records(
        rows, title=f"{args.workflow}: {len(records)} sampled rows, "
                    f"{len(rows)} metrics")
    return _deliver(args, text, records)


def cmd_list(args: argparse.Namespace) -> int:
    for name in sorted(WORKFLOWS):
        print(name)
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments import EXPERIMENTS
    rows = [{
        "id": e.id, "artifact": e.artifact, "bench": e.bench,
        "workflows": "+".join(e.workflows),
    } for e in EXPERIMENTS]
    print(format_records(rows, title="Experiment registry "
                               "(paper artifact -> bench)"))
    if args.id:
        from .experiments import get_experiment
        experiment = get_experiment(args.id)
        print(f"\n{experiment.id}: {experiment.artifact}")
        for claim in experiment.claims:
            print(f"  - {claim}")
    return 0


def cmd_dataplane(args: argparse.Namespace) -> int:
    """Per-backend proxy traffic and saved-transfer-time attribution."""
    session = AnalysisSession.of(args.run_dir)
    report = session.data_plane_report()
    if not report["enabled"]:
        text = ("no proxy events in this run "
                "(data plane disabled or nothing crossed the threshold)")
        return _deliver(args, text, {"run_dir": args.run_dir, **report})

    def _row(name: str, bucket: dict) -> dict:
        return {
            "backend": name,
            "puts": bucket["n_puts"],
            "resolves": bucket["n_resolves"],
            "failed": bucket["n_failed_resolves"],
            "evicts": bucket["n_evictions"],
            "GB_resolved": round(bucket["bytes_resolved"] / 1e9, 3),
            "resolve_s": round(bucket["resolve_s"], 3),
            "baseline_s": round(bucket["baseline_s"], 3),
            "saved_s": round(bucket["saved_s"], 3),
        }

    rows = [_row(name, bucket)
            for name, bucket in sorted(report["by_backend"].items())]
    rows.append(_row("total", report))
    text = format_records(
        rows, title="Data plane: proxy traffic vs. scheduler-path "
                    "estimate")
    if args.keys:
        view = session.data_plane_view()
        text += "\n\n" + format_records(
            view.to_records()[:args.keys],
            title=f"First {args.keys} proxy events")
    return _deliver(args, text, {"run_dir": args.run_dir, **report})


def _output_parent(format_default: str = "text") \
        -> argparse.ArgumentParser:
    """The output option pair shared by every reporting subcommand.

    One definition site: no subcommand declares ``--out``/``--format``
    ad hoc, so they parse (and read in help) identically everywhere.
    A subcommand whose product *is* a JSON document (``trace``) asks
    for its own parent instance with ``format_default="json"`` —
    argparse shares action objects between subparsers built from one
    parent, so mutating a shared default would leak to siblings.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--out", default=None,
        help="output destination (file, or directory for figures; "
             "default: stdout / a path under the run directory)")
    parent.add_argument(
        "--format", choices=("text", "json"), default=format_default,
        help="render as human-readable text or JSON "
             f"(default: {format_default})")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfrecup",
        description="Performance characterization and provenance of "
                    "simulated Dask-like workflows (SC24 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    output = _output_parent()

    p_run = sub.add_parser("run", help="run an instrumented workflow")
    p_run.add_argument("workflow", help="imageprocessing|resnet152|xgboost")
    p_run.add_argument("--runs", type=int, default=1)
    p_run.add_argument("--scale", type=float, default=0.1)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out", default=None,
                       help="persist run directories under this path")
    p_run.add_argument("--workers", type=int, default=None,
                       help="run repetitions on a process pool of this "
                            "many workers")
    p_run.set_defaults(func=cmd_run)

    p_an = sub.add_parser("analyze", parents=[output],
                          help="analyze a persisted run")
    p_an.add_argument("run_dir")
    p_an.add_argument("--top", type=int, default=5)
    p_an.add_argument("--bucket", type=float, default=100.0)
    p_an.set_defaults(func=cmd_analyze)

    p_prov = sub.add_parser("provenance",
                            help="print one task's full lineage")
    p_prov.add_argument("run_dir")
    p_prov.add_argument("--key", default=None)
    p_prov.add_argument("--max-items", type=int, default=8)
    p_prov.set_defaults(func=cmd_provenance)

    p_cmp = sub.add_parser("compare", parents=[output],
                           help="variability report across persisted runs")
    p_cmp.add_argument("runs_dir",
                       help="directory containing run0000, run0001, ...")
    p_cmp.add_argument("--top", type=int, default=8)
    p_cmp.set_defaults(func=cmd_compare)

    p_fig = sub.add_parser("figures", parents=[output],
                           help="render SVG figures for a persisted run")
    p_fig.add_argument("run_dir")
    p_fig.add_argument("--bucket", type=float, default=100.0)
    p_fig.set_defaults(func=cmd_figures)

    p_zoom = sub.add_parser("zoom", parents=[output],
                            help="stats for one time window of a run")
    p_zoom.add_argument("run_dir")
    p_zoom.add_argument("--start", type=float, default=0.0)
    p_zoom.add_argument("--end", type=float, default=None)
    p_zoom.set_defaults(func=cmd_zoom)

    p_rep = sub.add_parser("report", parents=[output],
                           help="single-file HTML report for a run")
    p_rep.add_argument("run_dir")
    p_rep.set_defaults(func=cmd_report)

    p_dp = sub.add_parser(
        "dataplane", parents=[output],
        help="proxy (pass-by-reference) traffic report for a run")
    p_dp.add_argument("run_dir")
    p_dp.add_argument("--keys", type=int, default=0,
                      help="also list the first N proxy events")
    p_dp.set_defaults(func=cmd_dataplane)

    p_lint = sub.add_parser(
        "lint",
        help="whole-program static analysis (determinism, provenance, "
             "concurrency, hotpath, provflow)")
    p_lint.add_argument("paths", nargs="*",
                        help="files/directories (default: the repro "
                             "package)")
    p_lint.add_argument("--rules", default=None,
                        help="comma-separated rule or family names "
                             "(determinism, provenance, concurrency, "
                             "hotpath, provflow, det-wallclock, ...)")
    p_lint.add_argument("--format", choices=("text", "json"),
                        default="text")
    p_lint.add_argument("--baseline", default=None,
                        help="JSON baseline of grandfathered findings")
    p_lint.add_argument("--write-baseline", default=None,
                        help="write current findings as the new baseline "
                             "and exit 0")
    p_lint.add_argument("--prune-baseline", action="store_true",
                        help="drop baseline entries that no longer match "
                             "any finding, rewrite the file, and exit 0")
    p_lint.add_argument("--verbose", action="store_true",
                        help="also print suppressed/baselined findings")
    p_lint.set_defaults(func=cmd_lint)

    p_san = sub.add_parser(
        "sanitize", parents=[output],
        help="run a workflow under the event-ordering sanitizer")
    p_san.add_argument("workflow",
                       help="imageprocessing|resnet152|xgboost")
    p_san.add_argument("--scale", type=float, default=0.05)
    p_san.add_argument("--seed", type=int, default=0)
    p_san.set_defaults(func=cmd_sanitize)

    p_faults = sub.add_parser(
        "faults", parents=[output],
        help="run a workflow under an injected fault schedule")
    p_faults.add_argument("workflow",
                          help="imageprocessing|resnet152|xgboost")
    p_faults.add_argument("--scale", type=float, default=0.05)
    p_faults.add_argument("--seed", type=int, default=0)
    p_faults.add_argument(
        "--fault", action="append", metavar="SPEC",
        help="fault spec kind@time[:target][+duration][xMAG] "
             "(repeatable; e.g. worker_crash@5 or "
             "pfs_ost_slowdown@2:0+10x8)")
    p_faults.set_defaults(func=cmd_faults)

    # The Chrome trace is the product: default to the JSON document
    # (open in chrome://tracing or Perfetto).
    p_trace = sub.add_parser(
        "trace", parents=[_output_parent(format_default="json")],
        help="run a workflow and emit a Chrome trace-event JSON")
    p_trace.add_argument("workflow",
                         help="imageprocessing|resnet152|xgboost")
    p_trace.add_argument("--scale", type=float, default=0.05)
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--interval", type=float, default=0.5,
                         help="metric sampling interval (sim seconds)")
    p_trace.set_defaults(func=cmd_trace)

    p_met = sub.add_parser(
        "metrics", parents=[output],
        help="run a workflow and dump its sampled telemetry series")
    p_met.add_argument("workflow",
                       help="imageprocessing|resnet152|xgboost")
    p_met.add_argument("--scale", type=float, default=0.05)
    p_met.add_argument("--seed", type=int, default=0)
    p_met.add_argument("--interval", type=float, default=0.5,
                       help="metric sampling interval (sim seconds)")
    p_met.set_defaults(func=cmd_metrics)

    p_list = sub.add_parser("list-workflows", help="list workflow names")
    p_list.set_defaults(func=cmd_list)

    p_exp = sub.add_parser("experiments",
                           help="list the paper-artifact registry")
    p_exp.add_argument("--id", default=None,
                       help="show one experiment's claims")
    p_exp.set_defaults(func=cmd_experiments)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
