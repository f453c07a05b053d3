"""``coupled_train_serve``: the paper's experiment through the real path —
training with the adaptive checkpoint callback while requests are served in
sim order."""

from __future__ import annotations

import math
from typing import List

from repro import Viper
from repro.apps import get_app
from repro.apps.candle import build_tc1
from repro.core.callback import CheckpointCallback
from repro.core.transfer.strategies import CaptureMode, TransferStrategy
from repro.dnn.losses import CrossEntropyLoss
from repro.dnn.training import Callback
from repro.errors import ViperError
from repro.workflow.experiments import make_cil_params

from benchmarks.e2e.harness import MODEL, Run, digest, now, tc1_save_kw

__all__ = ["run_coupled_train_serve"]

#: Publishes of the model before and again after ``coupled_train_serve``'s
#: experiment, for the update-level medians.
_UPDATE_PROBES = 30


class _SaveProxy:
    """The deployment as the checkpoint callback sees it, with the wall
    time of every ``save_weights`` read off around the real call."""

    def __init__(self, viper: Viper, run: Run):
        self._viper = viper
        self._run = run
        self.pending = None     # (version, save entry time, span mark, result)

    def save_weights(self, *args, **kwargs):
        run = self._run
        run.attempted += 2
        mark = run.begin_trace()
        t0 = now()
        res = self._viper.save_weights(*args, **kwargs)
        run.stall_wall.append(now() - t0)
        run.update_sim.append(res.update_latency)
        self.pending = (res.version, t0, mark, res)
        return res

    def __getattr__(self, name):
        return getattr(self._viper, name)


class _HookTimer(Callback):
    """Forwards every hook to ``inner`` and adds up the wall time spent
    there: what checkpointing costs the training loop."""

    def __init__(self, inner: Callback):
        super().__init__()
        self.inner = inner
        self.wall = 0.0

    def set_model(self, model) -> None:
        self.inner.set_model(model)

    def _timed(self, hook, *args) -> None:
        t0 = now()
        hook(*args)
        self.wall += now() - t0

    def on_train_begin(self, logs):
        self._timed(self.inner.on_train_begin, logs)

    def on_epoch_begin(self, epoch, logs):
        self._timed(self.inner.on_epoch_begin, epoch, logs)

    def on_batch_end(self, iteration, logs):
        self._timed(self.inner.on_batch_end, iteration, logs)

    def on_epoch_end(self, epoch, logs):
        self._timed(self.inner.on_epoch_end, epoch, logs)

    def on_train_end(self, logs):
        self._timed(self.inner.on_train_end, logs)


class _ServeDue(Callback):
    """After every training iteration, serve the requests that have arrived
    by then on the sim clock — single-threaded, so the order of saves, swaps
    and requests (and with it the CIL) repeats exactly."""

    def __init__(self, run, dep, proxy, ckpt, *, xs, ys, total, gap, t_train,
                 total_iters):
        super().__init__()
        self.run, self.dep, self.proxy, self.ckpt = run, dep, proxy, ckpt
        self.xs, self.ys = xs, ys
        self.total, self.gap, self.t_train = total, gap, t_train
        self.total_iters = total_iters
        self.k = 0
        self.versions_served: List[int] = []

    def serve_one(self, *, probe: bool = False) -> None:
        """One request of the stream; a ``probe`` request is extra and
        leaves the stream where it was."""
        run, server = self.run, self.dep.server
        i = self.k % len(self.xs)
        if not probe:
            self.k += 1
        run.attempted += 1
        pending = self.proxy.pending
        try:
            t0 = now()
            swapped = server.poll_updates()
            t1 = now()
            _, req = server.handle(self.xs[i], self.ys[i])
            t2 = now()
        except ViperError:
            run.failed += 1
            return
        if not self.versions_served or req.model_version != self.versions_served[-1]:
            self.versions_served.append(req.model_version)
        if pending is None:
            run.record_request(t2 - t0)
            return
        # First request after a checkpoint: its poll swaps the new version
        # in and it is the first to be served by it.
        version, save_t0, mark, res = pending
        self.proxy.pending = None
        run.check("poll_swapped", swapped)
        run.check("served_version_is_published", req.model_version == version)
        run.apply_wall.append(t1 - t0)
        run.record_update(t2 - save_t0, run.spans_since(mark))
        run.wire_bytes.append(self.dep.staged_bytes(res.record))

    def serve_until(self, sim_now: float) -> None:
        while self.k < self.total and self.k * self.gap <= sim_now:
            self.serve_one()

    def on_batch_end(self, iteration, logs):
        self.run.start_tracing_if_due(iteration / self.total_iters)
        if self.proxy.pending is not None:
            # ASYNC capture: let the engine finish the delivery, as the
            # consumer would see it one push latency later.
            self.dep.viper.drain()
        self.serve_until(iteration * self.t_train + self.ckpt.stall_seconds)


def run_coupled_train_serve(run: Run) -> None:
    opts = run.opts
    # One process measures this workload, so its three looks at the host
    # (see Run.looks) are the three thirds of its samples.
    run.looks = 3
    app = get_app("tc1")
    # The size of this workload is fixed by --seconds, not cut off by the
    # clock, so that cil and the sim-clock stall repeat exactly: 10 epochs
    # and 30,000 requests at the declared 12 s.
    if opts.smoke:
        epochs, warmup_epochs, scale, total_requests = 2, 1, 0.15, 1_500
    else:
        epochs = max(5, round(opts.seconds * 10 / 12))
        warmup_epochs, scale = 3, 0.15
        total_requests = int(opts.seconds * 2_500)
    x_train, y_train, x_test, y_test = app.dataset(scale=scale, seed=opts.seed)
    run.input_digest = digest(x_train, y_train, x_test, y_test)
    batch = app.batch_size
    iters_per_epoch = -(-x_train.shape[0] // batch)
    total_iters = iters_per_epoch * epochs
    xs = [x_test[i : i + 1] for i in range(x_test.shape[0])]
    ys = [y_test[i : i + 1] for i in range(y_test.shape[0])]

    def build():
        return build_tc1(seed=202 + opts.seed)

    viper = Viper()
    dep = run.deploy(viper, build, loss_fn=CrossEntropyLoss(),
                     t_infer=app.timing.t_infer)
    model = build()
    run.payload_bytes = sum(v.nbytes for v in model.state_dict().values())
    proxy = _SaveProxy(viper, run)
    save_kw = tc1_save_kw(CaptureMode.ASYNC)
    ckpt = CheckpointCallback(
        proxy,
        MODEL,
        algorithm="adaptive",
        warmup_iters=warmup_epochs * iters_per_epoch,
        cil_params=make_cil_params(app, TransferStrategy.GPU_TO_GPU, CaptureMode.ASYNC),
        total_iters=total_iters,
        total_inferences=total_requests,
        iters_per_epoch=iters_per_epoch,
        **save_kw,
    )
    dep.adapter, dep.train_model, dep.save_proxy = ckpt.adapter, model, proxy
    t_train = app.timing.t_train
    hooks = _HookTimer(ckpt)
    serve = _ServeDue(
        run, dep, proxy, ckpt, xs=xs, ys=ys, total=total_requests,
        gap=total_iters * t_train / total_requests, t_train=t_train,
        total_iters=total_iters,
    )
    def probe_updates() -> None:
        # The experiment's own checkpoints are too few, and too close
        # together in time, for steady medians of one update's life.  The
        # model goes through the same path (ASYNC save, drain, swap, first
        # serve) some more times before and after the experiment; these
        # samples feed the update-level medians only.
        for _ in range(6 if opts.smoke else _UPDATE_PROBES):
            proxy.save_weights(MODEL, model.state_dict(), **save_kw)
            viper.drain()
            serve.serve_one(probe=True)

    # Warm numpy's code paths (first calls allocate and import lazily).
    model.predict(xs[0])
    if not run.ready():
        return
    server = dep.server
    probe_updates()
    loss0, scored0 = server.cumulative_loss, server.scored_requests
    model.fit(x_train, y_train, epochs=epochs, batch_size=batch,
              callbacks=[hooks, serve], seed=opts.seed)
    # Requests that arrive after the last iteration see the final model.
    serve.serve_until(float("inf"))
    cil = server.cumulative_loss - loss0
    run.check("all_requests_served",
              server.scored_requests - scored0 == total_requests)
    run.check("versions_served_non_decreasing",
              serve.versions_served == sorted(serve.versions_served))
    run.check("cil_finite", math.isfinite(cil))
    run.check("enough_checkpoints",
              len(ckpt.checkpoints_taken) >= (1 if opts.smoke else 4))
    run.scoped.update(
        requests=total_requests,
        iterations=total_iters,
        checkpoints=len(ckpt.checkpoints_taken),
        refits=ckpt.adapter.refits,
        cil=cil,
        train_stall_sim_s=ckpt.stall_seconds,
        train_overhead_wall_s=hooks.wall,
    )
    probe_updates()
