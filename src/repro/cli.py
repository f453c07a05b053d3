"""Command-line driver: regenerate the paper's experiments without pytest.

Usage::

    python -m repro fig8 [--app tc1]        # update-latency table
    python -m repro fig9                    # transfer-strategy impact
    python -m repro fig10 [--app tc1] [--scale 0.25]
    python -m repro table1 [--scale 0.25]
    python -m repro timeline [--app tc1] [--scale 0.1]
    python -m repro obs [--export-trace t.json]   # per-stage latency breakdown
    python -m repro obs lineage [VERSION]   # one version's capture->serve trace
    python -m repro obs fleet               # per-consumer freshness scorecard
    python -m repro apps                    # list workload profiles

Figures 9/10 and Table 1 train the real model first (pass ``--scale`` to
shrink the synthetic dataset; the loss curve is stretched back to the
paper-scale iteration axis).
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict

from repro.analysis.reporting import (
    format_fig8_table,
    format_fig9_table,
    format_fig10_table,
    format_table1,
)
from repro.analysis.timeline import render_timeline, summarize_trace
from repro.apps.registry import get_app, list_apps

__all__ = ["main"]


def _curve(app_name: str, scale: float, seed: int):
    from repro.workflow.experiments import measured_loss_curve

    app = get_app(app_name)
    print(f"training {app.display_name} (scale={scale}, seed={seed}) ...",
          file=sys.stderr)
    return app, measured_loss_curve(app, scale=scale, seed=seed)


def cmd_apps(_args) -> int:
    """``repro apps``: list the workload profiles."""
    for name in list_apps():
        app = get_app(name)
        print(
            f"{name:<10} {app.display_name:<14} ckpt={app.checkpoint_bytes / 1e9:.1f} GB "
            f"epochs={app.epochs} iters/epoch={app.iters_per_epoch} "
            f"M={app.total_inferences}"
        )
    return 0


def cmd_fig8(args) -> int:
    """``repro fig8``: live update-latency tables."""
    from repro.analysis.latency import measure_latencies

    for app_name in [args.app] if args.app else ["nt3a", "tc1", "ptychonn"]:
        print(format_fig8_table(app_name, measure_latencies(app_name)))
        print()
    return 0


def cmd_fig9(args) -> int:
    """``repro fig9``: transfer-strategy impact on TC1."""
    from repro.workflow.experiments import run_strategy_comparison

    app, curve = _curve("tc1", args.scale, args.seed)
    results = run_strategy_comparison(app, curve)
    measured = {
        key: {"cil": r.cil, "overhead": r.training_overhead}
        for key, r in results.items()
    }
    print(format_fig9_table(measured))
    if args.json:
        from repro.analysis.export import export_json

        export_json(args.json, "fig9", results,
                    extra={"scale": args.scale, "seed": args.seed})
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


def cmd_fig10(args) -> int:
    """``repro fig10``: CIL per checkpoint schedule."""
    from repro.workflow.experiments import run_schedule_comparison

    exported = {}
    for app_name in [args.app] if args.app else ["nt3b", "tc1", "ptychonn"]:
        app, curve = _curve(app_name, args.scale, args.seed)
        results = run_schedule_comparison(app, curve)
        exported[app_name] = results
        print(format_fig10_table(app_name, {k: r.cil for k, r in results.items()}))
        print()
    if args.json:
        from repro.analysis.export import export_json

        export_json(args.json, "fig10", exported,
                    extra={"scale": args.scale, "seed": args.seed})
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


def cmd_table1(args) -> int:
    """``repro table1``: checkpoints and overheads."""
    from repro.workflow.experiments import run_schedule_comparison

    measured: Dict[str, Dict[str, Dict[str, float]]] = {}
    for app_name in ["nt3b", "tc1", "ptychonn"]:
        app, curve = _curve(app_name, args.scale, args.seed)
        results = run_schedule_comparison(app, curve)
        measured[app_name] = {
            sched: {"ckpts": r.checkpoints, "overhead": r.training_overhead}
            for sched, r in results.items()
        }
    print(format_table1(measured))
    if args.json:
        from repro.analysis.export import export_json

        export_json(args.json, "table1", measured,
                    extra={"scale": args.scale, "seed": args.seed})
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


def cmd_timeline(args) -> int:
    """``repro timeline``: ASCII trace of a coupled run."""
    from repro.core.predictor.schedules import epoch_schedule
    from repro.core.transfer.strategies import CaptureMode, TransferStrategy
    from repro.workflow.runner import CoupledRunConfig, run_coupled

    app, curve = _curve(args.app or "tc1", args.scale, args.seed)
    schedule = epoch_schedule(app.warmup_iters, app.total_iters, app.iters_per_epoch)
    result = run_coupled(
        CoupledRunConfig(
            app=app,
            schedule=schedule,
            loss_curve=curve,
            strategy=TransferStrategy(args.strategy),
            mode=CaptureMode.ASYNC,
        )
    )
    print(f"events: {summarize_trace(result.trace)}")
    print(render_timeline(result.trace, width=args.width))
    print(
        f"CIL={result.cil:.1f}  checkpoints={result.checkpoints}  "
        f"training overhead={result.training_overhead:.2f}s"
    )
    return 0


def cmd_obs(args) -> int:
    """``repro obs``: instrumented coupled run + per-stage breakdown."""
    from repro.core.predictor.schedules import epoch_schedule
    from repro.core.transfer.strategies import CaptureMode, TransferStrategy
    from repro.obs.exporters import (
        write_chrome_trace,
        write_jsonl_events,
        write_prometheus,
    )
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.report import format_stage_table, stage_breakdown
    from repro.obs.tracer import SpanTracer
    from repro.workflow.runner import CoupledRunConfig, run_coupled

    app, curve = _curve(args.app or "tc1", args.scale, args.seed)
    schedule = epoch_schedule(app.warmup_iters, app.total_iters, app.iters_per_epoch)
    tracer = SpanTracer()
    result = run_coupled(
        CoupledRunConfig(
            app=app,
            schedule=schedule,
            loss_curve=curve,
            strategy=TransferStrategy(args.strategy),
            mode=CaptureMode.SYNC if args.sync else CaptureMode.ASYNC,
            tracer=tracer,
        )
    )
    breakdown = stage_breakdown(result.trace)

    print(f"{app.display_name}: {result.checkpoints} checkpoint(s), "
          f"{result.superseded} superseded, "
          f"training overhead {result.training_overhead:.3f}s, "
          f"CIL {result.cil:.1f}")
    print()
    print(format_stage_table(breakdown))

    # Mirror the per-stage aggregates into a metrics registry so the
    # Prometheus/JSONL exports carry the same numbers as the table.
    metrics = MetricsRegistry()
    for stats in breakdown.stages():
        hist = metrics.histogram("pipeline_stage_sim_seconds", stage=stats.stage)
        for duration in stats.durations:
            hist.observe(duration)
    metrics.counter("pipeline_checkpoints_total").inc(result.checkpoints)
    metrics.counter("pipeline_superseded_total").inc(result.superseded)
    metrics.gauge("pipeline_training_overhead_sim_seconds").set(
        result.training_overhead
    )

    if args.export_trace:
        write_chrome_trace(
            args.export_trace, spans=tracer.spans(), trace=result.trace,
            trace_kinds=("iteration", "superseded", "swap", "train_end"),
        )
        print(f"wrote Chrome trace: {args.export_trace} "
              f"(open at chrome://tracing or ui.perfetto.dev)", file=sys.stderr)
    if args.export_metrics:
        write_prometheus(args.export_metrics, metrics)
        print(f"wrote Prometheus metrics: {args.export_metrics}", file=sys.stderr)
    if args.export_events:
        n = write_jsonl_events(
            args.export_events, spans=tracer.spans(), trace=result.trace
        )
        print(f"wrote {n} JSONL events: {args.export_events}", file=sys.stderr)
    return 0


def _lineage_run(args):
    """Run a lineage-armed DES fanout for the obs lineage/fleet reports.

    No model is trained: a synthetic convex loss curve keeps the command
    instant, and the lineage/freshness content only depends on the app's
    timing law, not on actual losses.
    """
    from repro.core.predictor.schedules import epoch_schedule
    from repro.core.transfer.strategies import CaptureMode, TransferStrategy
    from repro.obs.freshness import FreshnessTracker, SLOTarget
    from repro.obs.lineage import LifecycleLedger
    from repro.workflow.multi import run_fanout

    app = get_app(args.app or "tc1")
    end = app.warmup_iters + args.epochs * app.iters_per_epoch
    schedule = epoch_schedule(app.warmup_iters, end, app.iters_per_epoch)
    ledger = LifecycleLedger()
    fresh = FreshnessTracker(
        slo=SLOTarget(
            update_latency=args.slo_latency,
            max_stale_seconds=args.slo_stale,
            max_version_lag=args.slo_lag,
        )
    )
    result = run_fanout(
        app,
        schedule,
        lambda i: 1.0 / (1.0 + i),
        n_consumers=args.consumers,
        strategy=TransferStrategy(args.strategy),
        mode=CaptureMode.SYNC if args.sync else CaptureMode.ASYNC,
        lineage=ledger,
        freshness=fresh,
    )
    return app, ledger, fresh, result


def _export_lineage(args, ledger) -> None:
    if args.export_lineage:
        n = ledger.write_jsonl(args.export_lineage)
        print(f"wrote {n} lineage transitions: {args.export_lineage}",
              file=sys.stderr)


def cmd_obs_lineage(args) -> int:
    """``repro obs lineage [VERSION]``: one version's cradle-to-serve trace."""
    from repro.obs.report import format_lineage_table

    app, ledger, _fresh, _result = _lineage_run(args)
    versions = ledger.versions(app.name)
    if not versions:
        print("no checkpoints recorded (schedule produced none)")
        return 1
    if args.version is not None and args.version not in versions:
        print(f"version {args.version} not recorded; have {list(versions)}")
        return 1
    targets = [args.version] if args.version is not None else list(versions)
    for i, version in enumerate(targets):
        if i:
            print()
        print(format_lineage_table(ledger, app.name, version))
    _export_lineage(args, ledger)
    return 0


def cmd_obs_fleet(args) -> int:
    """``repro obs fleet``: per-consumer freshness/SLO scorecard."""
    from repro.obs.freshness import format_fleet_table

    app, ledger, fresh, result = _lineage_run(args)
    print(f"{app.display_name}: {result.checkpoints} checkpoint(s), "
          f"{args.consumers} consumer(s), total CIL {result.total_cil:.1f}")
    print()
    print(format_fleet_table(fresh.fleet(app.name),
                             fresh.latest_version(app.name)))
    incomplete = [
        v for v in ledger.versions(app.name) if not ledger.complete(app.name, v)
    ]
    if incomplete:
        print()
        print(f"WARNING: incomplete lineage for version(s) {incomplete}")
    _export_lineage(args, ledger)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Viper reproduction: regenerate the paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("apps", help="list workload profiles").set_defaults(fn=cmd_apps)

    p8 = sub.add_parser("fig8", help="end-to-end update latency table")
    p8.add_argument("--app", choices=["nt3a", "tc1", "ptychonn"])
    p8.set_defaults(fn=cmd_fig8)

    for name, fn, has_app in (
        ("fig9", cmd_fig9, False),
        ("fig10", cmd_fig10, True),
        ("table1", cmd_table1, False),
    ):
        p = sub.add_parser(name, help=f"regenerate {name}")
        if has_app:
            p.add_argument("--app", choices=["nt3b", "tc1", "ptychonn"])
        p.add_argument("--scale", type=float, default=0.25,
                       help="synthetic dataset scale (default 0.25)")
        p.add_argument("--seed", type=int, default=3)
        p.add_argument("--json", metavar="PATH",
                       help="also write results as JSON")
        p.set_defaults(fn=fn)

    po = sub.add_parser(
        "obs", help="instrumented coupled run: per-stage latency breakdown"
    )
    po.add_argument("--app", choices=["nt3b", "tc1", "ptychonn"])
    po.add_argument("--scale", type=float, default=0.1)
    po.add_argument("--seed", type=int, default=3)
    po.add_argument("--strategy", choices=["gpu", "host", "pfs"], default="gpu")
    po.add_argument("--sync", action="store_true",
                    help="synchronous capture (default: async)")
    po.add_argument("--export-trace", metavar="PATH",
                    help="write a Chrome/Perfetto trace_event JSON file")
    po.add_argument("--export-metrics", metavar="PATH",
                    help="write Prometheus-format metrics")
    po.add_argument("--export-events", metavar="PATH",
                    help="write spans and trace events as JSONL")
    po.set_defaults(fn=cmd_obs)

    obs_modes = po.add_subparsers(
        dest="obs_mode", metavar="{lineage,fleet}",
        help="lineage/fleet reports over a lineage-armed fanout run",
    )
    pl = obs_modes.add_parser(
        "lineage", help="per-version capture -> first-serve trace"
    )
    pl.add_argument("version", nargs="?", type=int, default=None,
                    help="checkpoint version to trace (default: all)")
    pf = obs_modes.add_parser(
        "fleet", help="per-consumer freshness/SLO scorecard"
    )
    for pm in (pl, pf):
        pm.add_argument("--app", choices=["nt3b", "tc1", "ptychonn"])
        pm.add_argument("--consumers", type=int, default=4,
                        help="serving replicas in the fanout (default 4)")
        pm.add_argument("--epochs", type=int, default=3,
                        help="checkpointing epochs to simulate (default 3)")
        pm.add_argument("--strategy", choices=["gpu", "host", "pfs"],
                        default="gpu")
        pm.add_argument("--sync", action="store_true",
                        help="synchronous capture (default: async)")
        pm.add_argument("--slo-latency", type=float, default=None,
                        help="SLO: publish->swap latency budget (sim s)")
        pm.add_argument("--slo-stale", type=float, default=None,
                        help="SLO: per-interval staleness budget (sim s)")
        pm.add_argument("--slo-lag", type=int, default=None,
                        help="SLO: max tolerated version lag at swap")
        pm.add_argument("--export-lineage", metavar="PATH",
                        help="write the lineage ledger as JSONL")
    pl.set_defaults(fn=cmd_obs_lineage)
    pf.set_defaults(fn=cmd_obs_fleet)

    pt = sub.add_parser("timeline", help="ASCII timeline of a coupled run")
    pt.add_argument("--app", choices=["nt3b", "tc1", "ptychonn"])
    pt.add_argument("--scale", type=float, default=0.1)
    pt.add_argument("--seed", type=int, default=3)
    pt.add_argument("--strategy", choices=["gpu", "host", "pfs"], default="gpu")
    pt.add_argument("--width", type=int, default=100)
    pt.set_defaults(fn=cmd_timeline)

    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
