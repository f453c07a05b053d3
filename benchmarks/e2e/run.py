"""Command line of the end-to-end benchmark.

    python3 benchmarks/e2e/run.py --workload sparse_update --seed 0 \
        --seconds 12 --trace 0

runs one workload and prints, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding every
``end_to_end`` metric of ``BENCHMARK.json`` (``--trace 0``) or every
``per_layer`` metric (``--trace 1``).  Without ``--workload`` it runs all
five that way and ``--out FILE`` writes the whole result set as one JSON
file.

Every workload runs in fresh subprocesses of this script (``--worker``).
An untraced run starts three, each of which sets up and then measures for a
third of ``--seconds``; a timing is the best of the three, ``setup_s`` and
everything else the median.  This parent imports neither numpy nor the system under test.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
if not __package__:
    # Run as a script: make ``benchmarks.e2e`` importable from the checkout.
    sys.path.insert(0, str(HERE.parents[1]))

from benchmarks.e2e.contract import (  # noqa: E402
    EXACT, ROOT, WORKLOAD_NAMES, bounds, load_contract, percentile,
)

SRC = ROOT / "src"
#: Fresh processes per untraced run.
PROCESSES = 3
#: Units of the wall-clock timings (``setup_s`` is deliberately not one).
TIMING_UNITS = ("ms", "us", "MB/s")
WORKER_TIMEOUT = 170.0


# ----------------------------------------------------------------------
# Worker: one process, one workload
# ----------------------------------------------------------------------
def worker(args) -> int:
    sys.path.insert(0, str(SRC))
    from benchmarks.e2e import metrics
    from benchmarks.e2e.harness import Options, Run
    from benchmarks.e2e.workloads import WORKLOADS

    opts = Options(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), smoke=args.smoke, setup_only=args.setup_only,
        t0=args.t0, trace_out=args.trace_out,
    )
    run = Run(opts)
    try:
        WORKLOADS[opts.workload](run)
        result = {
            "workload": opts.workload, "seed": opts.seed,
            "seconds": opts.seconds, "trace": int(opts.trace),
            "smoke": opts.smoke, "setup_s": run.setup_s,
        }
        if not opts.setup_only:
            if opts.trace:
                # The sum check: the spans of one update explain its wall time.
                run.check(
                    "spans_cover_the_update",
                    len(run.attributed) > 0
                    and statistics.median(run.attributed) >= 0.95,
                )
                result["metrics"] = metrics.per_layer(run)
                result["layer_table"] = run.tracer.layer_table()
                if opts.trace_out:
                    run.tracer.write(opts.trace_out)
            else:
                result["metrics"] = metrics.end_to_end(run)
                result["scoped"] = metrics.scoped(run)
                result["update_wall_ms"] = [w * 1e3 for w in run.update_wall]
            result.update(
                correct=run.failed == 0 and all(run.checks.values()),
                attempted=run.attempted,
                failed=run.failed, checks=run.checks,
                input_digest=run.input_digest,
                samples={
                    "updates": len(run.update_wall),
                    "requests": len(run.request_wall),
                },
                sizes={k: v for k, v in run.scoped.items()
                       if isinstance(v, int)},
                measured_s=run.elapsed(),
            )
    finally:
        if run.dep is not None:
            run.dep.close()
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# Parent: spawn workers, gather, print
# ----------------------------------------------------------------------
def spawn(workload: str, args, *, seconds: float, trace: int = 0,
          setup_only: bool = False) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--worker",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--t0", repr(time.time()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--smoke")
    if trace and args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(args.trace_dir, f"trace_{workload}.json")]
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT, check=False,
        cwd=str(ROOT),
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"worker for {workload!r} exited with {proc.returncode}"
        )
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def combine(parts: list) -> dict:
    """One result from the results of several measuring processes.

    A timing is the best of the processes' values: whatever else runs on
    this shared host only ever slows a process down, so the calmest process
    is the one that measured the system (between runs, the best of three
    spreads about half as widely as their median).  Every other metric is
    the median; counts are summed, checks conjoined.  Metrics that repeat
    exactly must agree across the processes.
    """
    out = dict(parts[-1])
    declared = bounds()
    for group in ("metrics", "scoped"):
        out[group] = {}
        for name, m in parts[-1][group].items():
            values = [p[group][name]["value"] for p in parts]
            if m["unit"] not in TIMING_UNITS:
                value = statistics.median(values)
            elif declared[name][1] == "lower":
                value = min(values)
            else:
                value = max(values)
            out[group][name] = {"value": value, "unit": m["unit"]}
    if "update_wall_ms_p90" in out["scoped"]:
        # The one tail over few samples: taken over all processes' samples.
        pooled = [ms for p in parts for ms in p["update_wall_ms"]]
        out["scoped"]["update_wall_ms_p90"]["value"] = percentile(pooled, 0.90)
    out["checks"] = {
        name: all(p["checks"].get(name, True) for p in parts)
        for p in parts for name in p["checks"]
    }
    everything = {**parts[0]["metrics"], **parts[0]["scoped"]}
    out["checks"]["exact_metrics_agree_across_processes"] = all(
        {**p["metrics"], **p["scoped"]}[name]["value"] == everything[name]["value"]
        for p in parts for name in EXACT if name in everything
    )
    out["correct"] = all(p["correct"] for p in parts) and all(out["checks"].values())
    for key in ("attempted", "failed", "measured_s"):
        out[key] = sum(p[key] for p in parts)
    for key in ("samples", "sizes"):
        out[key] = {k: sum(p[key][k] for p in parts) for k in parts[-1][key]}
    out["per_process"] = [
        {name: m["value"] for name, m in p["metrics"].items()} for p in parts
    ]
    del out["update_wall_ms"]
    return out


def run_workload(workload: str, args) -> dict:
    """One run of one workload.

    Untraced, ``PROCESSES`` fresh processes each set up and then measure for
    a third of the time; :func:`combine` makes one result of the three.
    ``coupled_train_serve`` is one experiment of fixed size, so there the
    first two only set up.
    """
    if args.trace:
        return spawn(workload, args, trace=1, seconds=args.seconds)
    if workload == "coupled_train_serve":
        setups = [
            spawn(workload, args, seconds=args.seconds, setup_only=True)["setup_s"]
            for _ in range(PROCESSES - 1)
        ]
        result = combine([spawn(workload, args, seconds=args.seconds)])
        setups.append(result["setup_s"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        return result
    return combine([
        spawn(workload, args, seconds=args.seconds / PROCESSES)
        for _ in range(PROCESSES)
    ])


def show(result: dict) -> None:
    """Every metric by name, with its unit; the layer table when traced."""
    head = (
        f"== {result['workload']}  seed={result['seed']}  "
        f"{'traced' if result['trace'] else 'untraced'}  "
        f"measured {result['measured_s']:.1f} s  "
        f"updates={result['samples']['updates']} "
        f"requests={result['samples']['requests']}"
    )
    print(head)
    for name, m in {**result["metrics"], **result.get("scoped", {})}.items():
        print(f"  {name:<44s} {m['value']:>16.6g} {m['unit']}")
    if "layer_table" in result:
        print(f"  {'span':<46s} {'calls':>8s} {'median us':>12s} "
              f"{'total ms':>11s} {'self ms':>11s}")
        for row in result["layer_table"]:
            print(f"  {row['span']:<46s} {row['calls']:>8d} "
                  f"{row['median_us']:>12.1f} {row['total_ms']:>11.1f} "
                  f"{row['self_total_ms']:>11.1f}")
    bad = [name for name, ok in result["checks"].items() if not ok]
    print(f"  checks: {len(result['checks']) - len(bad)} passed"
          + (f", FAILED: {', '.join(bad)}" if bad else "")
          + f"; attempted={result['attempted']} failed={result['failed']}")


def check_names(result: dict, declared: dict) -> None:
    key = "per_layer" if result["trace"] else "end_to_end"
    want = {m["name"]: m["unit"] for m in declared[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        raise SystemExit(
            f"{result['workload']}: emitted {key} metrics differ from "
            f"BENCHMARK.json: {sorted(set(want) ^ set(got))}"
        )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny fixed sizes, for the smoke test")
    p.add_argument("--out", help="write the full result set to this file")
    p.add_argument("--trace-dir",
                   help="write trace_<workload>.json (raw spans) here")
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--t0", type=float, default=0.0, help=argparse.SUPPRESS)
    p.add_argument("--trace-out", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"no system under test at {SRC}", file=sys.stderr)
        return 2
    declared = load_contract()
    if args.seconds is None:
        args.seconds = float(declared["run_seconds"])
    if args.worker:
        return worker(args)

    names = [args.workload] if args.workload else WORKLOAD_NAMES
    results = []
    for name in names:
        result = run_workload(name, args)
        show(result)
        check_names(result, declared)
        results.append(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"results": results, "claim": None}, fh, indent=1)
            fh.write("\n")
    correct = all(r["correct"] for r in results)
    # The contract line: one workload's metrics, or the suite's totals.
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": results[0]["metrics"] if args.workload else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
