"""``serve_steady``: one request's life with every serving feature armed
and transfer negligible."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro import Viper
from repro.apps import get_app
from repro.apps.candle import build_tc1
from repro.core.transfer.strategies import CaptureMode
from repro.dnn.losses import CrossEntropyLoss
from repro.errors import OverloadError, ViperError
from repro.obs.freshness import FreshnessTracker
from repro.obs.lineage import LifecycleLedger
from repro.obs.metrics import MetricsRegistry
from repro.rollout.policy import RolloutPolicy
from repro.serving.admission import AdmissionConfig

from benchmarks.e2e.harness import (
    MODEL, Deployment, Run, digest, now, tc1_save_kw,
)

__all__ = ["run_serve_steady"]


@dataclass(frozen=True)
class _ServeShape:
    gap: float = 0.008          # sim seconds between arrivals (125 req/s)
    budget: float = 0.05        # deadline = arrival + budget
    block: int = 10_000         # one burst per block of requests
    burst_len: int = 200        # requests per burst, at 3x the rate
    update_every: int = 2_000   # requests between two small publishes
    # Requests after a burst during which its backlog may still shed.
    aftermath: int = 150


_SERVE_FULL = _ServeShape()
_SERVE_SMOKE = _ServeShape(block=1_500, update_every=500)


class _ServeLoop:
    """The closed-loop client of ``serve_steady``: one request at a time on
    the sim-clock arrival schedule, one small publish per cycle."""

    def __init__(self, run: Run, dep: Deployment, shape: _ServeShape, *,
                 state, xs, ys, save_kw):
        self.run, self.dep, self.shape = run, dep, shape
        self.state, self.xs, self.ys, self.save_kw = state, xs, ys, save_kw
        self.timed = False
        self.k = 0                  # requests sent so far
        # Sim arrival time of the last request.  Starts ahead of the
        # pipeline clock (which each publish advances by about a second
        # and each swap pulls the serving clock up to), so that a swap
        # never makes the server look late.
        self.arrival = 10.0
        self.served = 0
        self.shed = {"deadline": 0, "rate": 0, "concurrency": 0}
        self.sheds_without_reason = 0
        self.sheds_outside_burst = 0
        self.published = 0
        self.latest_version = 0
        # (version, save entry time, span mark) until it is first served
        self.pending = None
        self.stage_due = False
        # One burst per block; its start is drawn lazily from the seed so
        # that the loop can run for as long as the clock says.
        self._burst_rng = np.random.default_rng([run.opts.seed, 1])
        self._burst_starts: List[int] = []

    def burst_start(self, block: int) -> int:
        sh = self.shape
        while len(self._burst_starts) <= block:
            margin = sh.block // 10
            offset = self._burst_rng.integers(
                margin, sh.block - sh.burst_len - sh.aftermath - margin
            )
            self._burst_starts.append(len(self._burst_starts) * sh.block + int(offset))
        return self._burst_starts[block]

    def publish(self) -> None:
        run = self.run
        for value in self.state.values():
            value *= np.float32(1.0001)
        run.attempted += 2          # the save, and the load that stages it
        mark = run.begin_trace()
        t0 = now()
        try:
            res = self.dep.viper.save_weights(MODEL, self.state, **self.save_kw)
        except ViperError:
            run.failed += 1
            return
        t1 = now()
        self.pending = (res.version, t0, mark)
        self.stage_due = True
        self.published += 1
        self.latest_version = res.version
        if self.timed:
            run.stall_wall.append(t1 - t0)
            run.update_sim.append(res.update_latency)
            run.wire_bytes.append(self.dep.staged_bytes(res.record))

    def request(self) -> None:
        run, sh, server = self.run, self.shape, self.dep.server
        k = self.k
        self.k += 1
        block = k // sh.block
        start = self.burst_start(block)
        in_burst = start <= k < start + sh.burst_len
        self.arrival += sh.gap / 3.0 if in_burst else sh.gap
        # Bursts alternate: deadline-carrying ones overrun the deadline
        # gate, deadline-free ones drain the token bucket.
        deadline = None if (in_burst and block % 2) else self.arrival + sh.budget
        primary_before = self.dep.consumer.current_version
        stage_due = self.stage_due
        i = k % len(self.xs)
        run.attempted += 1
        try:
            t0 = now()
            promoted = server.poll_updates()
            t1 = now()
            _, req = server.handle(
                self.xs[i], self.ys[i], deadline=deadline, arrival=self.arrival
            )
            t2 = now()
        except OverloadError as exc:
            if exc.reason in self.shed:
                self.shed[exc.reason] += 1
            else:
                self.sheds_without_reason += 1
            if not start <= k < start + sh.burst_len + sh.aftermath:
                self.sheds_outside_burst += 1
            return
        except ViperError:
            run.failed += 1
            return
        self.served += 1
        run.check("served_not_older_than_primary", req.model_version >= primary_before)
        if promoted:
            run.check("promoted_is_published",
                      self.dep.consumer.current_version == self.latest_version)
        if stage_due:
            # The poll right after a publish loads the new version (into
            # the canary slot): that is the consumer's apply, and this
            # request is not a steady-state sample.
            self.stage_due = False
            if self.timed:
                run.apply_wall.append(t1 - t0)
        elif self.timed:
            run.record_request(t2 - t0)
        if self.pending is not None and req.model_version == self.pending[0]:
            _, save_t0, mark = self.pending
            self.pending = None
            if self.timed:
                run.record_update(t2 - save_t0, run.spans_since(mark))

    def cycle(self, requests: int) -> None:
        self.publish()
        for _ in range(requests):
            self.request()


def run_serve_steady(run: Run) -> None:
    opts = run.opts
    shape = _SERVE_SMOKE if opts.smoke else _SERVE_FULL
    app = get_app("tc1")
    _, _, x_test, y_test = app.dataset(scale=0.05, seed=opts.seed)
    order = np.random.default_rng(opts.seed).permutation(x_test.shape[0])
    run.input_digest = digest(x_test, y_test, order)

    def build():
        return build_tc1(seed=202 + opts.seed)

    state = build().state_dict()
    run.payload_bytes = sum(v.nbytes for v in state.values())
    viper = Viper(
        metrics=MetricsRegistry(),
        lineage=LifecycleLedger(),
        freshness=FreshnessTracker(),
        lease_ttl=60.0,
        breaker=True,
    )
    dep = run.deploy(
        viper,
        build,
        loss_fn=CrossEntropyLoss(),
        t_infer=app.timing.t_infer,
        rollout=RolloutPolicy(),
        admission=AdmissionConfig(rate=150.0, burst=32.0),
        degraded_ok=True,
        staleness_deadline=30.0,
        max_request_log=4096,
    )
    loop = _ServeLoop(
        run, dep, shape, state=state,
        xs=[x_test[i : i + 1] for i in order],
        ys=[y_test[i : i + 1] for i in order],
        save_kw=tc1_save_kw(CaptureMode.SYNC),
    )
    rollout = dep.server.rollout
    # Warm-up: three short update cycles, so that the canary replica exists
    # and every code path has run once.
    for _ in range(3):
        loop.cycle(shape.update_every // 4)
    if not run.ready():
        return
    loop.timed = True
    k0, served0, shed0 = loop.k, loop.served, dict(loop.shed)
    outside0 = loop.sheds_outside_burst
    published0, promotions0 = loop.published, rollout.promotions
    decisions0 = len(rollout.decisions)
    for _ in run.iterations(smoke_count=3, at_least=2):
        loop.cycle(shape.update_every)
    requests = loop.k - k0
    shed = {r: loop.shed[r] - shed0[r] for r in loop.shed}
    published = loop.published - published0
    run.check("served_plus_shed_is_attempted",
              (loop.served - served0) + sum(shed.values()) == requests)
    run.check("every_shed_has_a_reason", loop.sheds_without_reason == 0)
    run.check("sheds_only_around_bursts", loop.sheds_outside_burst == outside0)
    if loop.k >= 2 * shape.block:    # both kinds of burst have run
        run.check("deadline_gate_fired", loop.shed["deadline"] > 0)
        run.check("token_bucket_fired", loop.shed["rate"] > 0)
    run.check("every_version_promoted",
              rollout.promotions - promotions0 == published)
    run.check("no_rollbacks", rollout.rollbacks == 0)
    run.check("no_update_left_pending", loop.pending is None)
    shares = [d["canary_share"] for d in rollout.decisions[decisions0:]
              if d["action"] == "promote"]
    run.scoped.update(
        requests=requests,
        served=loop.served - served0,
        versions=published,
        shed_deadline=shed["deadline"],
        shed_rate=shed["rate"],
        shed_concurrency=shed["concurrency"],
        canary_share=sum(shares) / max(len(shares), 1),
        cil=dep.server.cumulative_loss,
    )
