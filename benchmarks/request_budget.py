"""The cost of one served request, step by step, on the ``serve_steady``
deployment.

    python3 benchmarks/request_budget.py [--seed 0] [--seconds 3] [--requests 4000]
    make request-budget

First runs the ``serve_steady`` workload of ``benchmarks/e2e`` untraced
for ``--seconds`` (after its warm-up), in this process; its request walls
give the workload's request p50.  Then, on the same warmed deployment,
serves ``--requests`` more requests on the workload's steady arrival
schedule (one gap apart, deadline = arrival + budget, no publishes).
Every other request goes through the calls the workload times
(``poll_updates`` + ``handle``), the rest through the steps ``handle``
runs, each timed on its own:

    poll     InferenceServer.poll_updates
    clock    InferenceServer.advance_clock
    admit    AdmissionController.admit
    route    the rollout route, or the primary's snapshot
    <layer>  each layer's forward, in model order (the predict)
    score    the loss against the request's label
    account  metrics, request log and running aggregates
    observe  health gate, staleness accounting, lineage
    release  AdmissionController.release

It prints each step's median, the sum of the medians, and next to it the
p50 of the interleaved public-call requests and the workload's own p50.
What the sum misses is the glue between the steps (the ``predict``
wrapper, the tracer's null span, the calls themselves).  ``--spans`` puts
the benchmark's traced-run spans around the deployment before the budget
loop, to see what the tracer adds (``dnn.models.predict`` against the
layer sum).  Reads ``benchmarks/e2e``, changes nothing in it.
"""

from __future__ import annotations

import argparse
import pathlib
import statistics
import sys
import time
from typing import Dict, List, Optional, Sequence

ROOT = pathlib.Path(__file__).resolve().parents[1]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import numpy as np  # noqa: E402

from repro.apps import get_app  # noqa: E402
from repro.errors import OverloadError  # noqa: E402

from benchmarks.e2e.harness import Options, Run  # noqa: E402
from benchmarks.e2e.serve_steady import _SERVE_FULL, run_serve_steady  # noqa: E402

now = time.perf_counter

#: The steps of a request that are not a layer's forward.
CONTROL_STEPS = ("poll", "clock", "admit", "route", "score", "account",
                 "observe", "release")


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=3.0,
                   help="timed length of the serve_steady run")
    p.add_argument("--requests", type=int, default=4000,
                   help="requests in the budget loop (half of them stepwise)")
    p.add_argument("--spans", action="store_true",
                   help="trace the deployment during the budget loop")
    args = p.parse_args(argv)
    if args.requests < 2:
        p.error("--requests must be >= 2")
    return args


def inputs(seed: int):
    """The workload's requests: tc1 test samples in its seeded order."""
    _, _, x_test, y_test = get_app("tc1").dataset(scale=0.05, seed=seed)
    order = np.random.default_rng(seed).permutation(x_test.shape[0])
    return [x_test[i : i + 1] for i in order], [y_test[i : i + 1] for i in order]


def stepwise(server, x, y, arrival: float, deadline: float,
             steps: Dict[str, List[float]]) -> bool:
    """One request as the steps ``handle`` runs, each timed; False when
    it was shed (its samples are then dropped)."""
    times = {}
    t0 = now()
    server.poll_updates()
    t1 = now()
    times["poll"] = t1 - t0
    t_now = server.advance_clock(arrival)
    t2 = now()
    times["clock"] = t2 - t1
    admission = server.admission
    try:
        admission.admit(t_now, deadline=deadline, service_time=server.t_infer)
    except OverloadError:
        return False
    t3 = now()
    times["admit"] = t3 - t2
    canary = server.rollout.route() if server.rollout is not None else None
    snapshot = canary if canary is not None else server.consumer._buffer.acquire()
    t4 = now()
    times["route"] = t4 - t3
    out = x
    for layer in snapshot.model.layers:
        t = now()
        out = layer.forward(out, training=False)
        times[layer.name] = now() - t
    t5 = now()
    loss = server.loss_fn.forward(out, y)
    t6 = now()
    times["score"] = t6 - t5
    req = server._account(snapshot.version, loss, t6 - t3)
    t7 = now()
    times["account"] = t7 - t6
    server._observe(snapshot.version, canary is not None, out, loss, t6 - t3, req)
    t8 = now()
    times["observe"] = t8 - t7
    admission.release()
    times["release"] = now() - t8
    for name, value in times.items():
        steps.setdefault(name, []).append(value)
    return True


def budget(run: Run, xs, ys, requests: int) -> dict:
    server = run.dep.server
    shape = _SERVE_FULL
    arrival = server.advance_clock(0.0)
    steps: Dict[str, List[float]] = {}
    walls: List[float] = []
    stepped = 0
    for k in range(requests):
        i = k % len(xs)
        arrival += shape.gap
        deadline = arrival + shape.budget
        if k % 2:
            stepped += stepwise(server, xs[i], ys[i], arrival, deadline, steps)
            continue
        try:
            t0 = now()
            server.poll_updates()
            server.handle(xs[i], ys[i], deadline=deadline, arrival=arrival)
            walls.append(now() - t0)
        except OverloadError:
            pass
    return {"steps": steps, "walls": walls, "stepped": stepped}


def report(result: dict, workload_walls, tracer) -> None:
    steps, walls = result["steps"], result["walls"]
    medians = {name: statistics.median(v) * 1e6 for name, v in steps.items()}
    width = max(len(name) for name in medians)
    print(f"{'step':<{width}s} {'median us':>10s}")
    for name, value in medians.items():
        print(f"{name:<{width}s} {value:>10.2f}")
    total = sum(medians.values())
    measured = statistics.median(walls) * 1e6
    layers = sum(v for name, v in medians.items() if name not in CONTROL_STEPS)
    print(f"{'sum of step medians':<{width}s} {total:>10.2f}")
    print(f"of which the layers (the predict): {layers:.2f} us")
    print(f"request p50, poll_updates + handle, same loop: {measured:.2f} us "
          f"({len(walls)} requests, {result['stepped']} stepwise; "
          f"the sum is {total / measured:.0%} of it)")
    if len(workload_walls):
        print(f"request p50 of the serve_steady run: "
              f"{statistics.median(workload_walls) * 1e6:.2f} us "
              f"({len(workload_walls)} requests)")
    if tracer is not None:
        for name in ("serving.server.poll_updates", "serving.server.handle",
                     "dnn.models.predict"):
            durs = tracer.stats.get(name, ((),))[0]
            if len(durs):
                print(f"traced {name}: {statistics.median(durs) * 1e6:.2f} us "
                      f"({len(durs)} calls)")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    run = Run(Options(workload="serve_steady", seed=args.seed,
                      seconds=args.seconds, t0=time.time()))
    try:
        run_serve_steady(run)
        if run.failed or not all(run.checks.values()):
            failed = [name for name, ok in run.checks.items() if not ok]
            print(f"serve_steady run failed: {run.failed} ops, checks {failed}")
            return 1
        tracer = None
        if args.spans:
            from benchmarks.e2e.spans import SpanTracer

            tracer = SpanTracer()
            run.dep.install_spans(tracer)
        xs, ys = inputs(args.seed)
        report(budget(run, xs, ys, args.requests), run.request_wall, tracer)
    finally:
        if run.dep is not None:
            run.dep.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
