"""What the five workloads share: the options of one worker process, the
record of one run, and the deployment under test.

The layers are only ever reached through their public entry points
(``Viper.save_weights``, ``InferenceServer.poll_updates`` / ``handle``,
``Sequential.fit``); wall time is read with ``perf_counter`` around those
calls.  Work that belongs to the benchmark and not to the system — mutating
the weights, verifying the served state — sits outside the timed stretches.
"""

from __future__ import annotations

import hashlib
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import Viper
from repro.apps import get_app
from repro.core.transfer import handler as handler_module
from repro.dnn.models import Sequential
from repro.serving.server import InferenceServer
from repro.substrates.memory.tiers import TierKind

__all__ = [
    "MODEL", "Options", "Run", "Deployment", "now", "digest", "tc1_save_kw",
]

now = time.perf_counter

MODEL = "bench"
#: Share of a traced run that stays untraced: the same process's reference
#: for ``trace.overhead_pct``.
UNTRACED_SHARE = 0.2


@dataclass
class Options:
    workload: str
    seed: int = 0
    seconds: float = 12.0
    trace: bool = False
    smoke: bool = False
    setup_only: bool = False
    #: ``time.time()`` in the parent just before this process was spawned.
    t0: float = 0.0
    trace_out: Optional[str] = None


def tc1_save_kw(mode) -> dict:
    """``save_weights`` keywords shared by every workload: the capture mode
    and the ``tc1`` virtual descriptor (4.7 GB, 30 tensors), which scales the
    sim clock and the tier accounting to the paper's checkpoint."""
    app = get_app("tc1")
    return dict(
        mode=mode,
        virtual_bytes=app.checkpoint_bytes,
        virtual_tensors=app.checkpoint_tensors,
    )


def digest(*arrays) -> str:
    """Fingerprint of generated inputs (a new seed must change it)."""
    h = hashlib.blake2b(digest_size=8)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class Deployment:
    """One Viper + subscribed consumer + inference server, and the list of
    every object the traced run puts spans around."""

    def __init__(self, viper: Viper, build: Callable[[], Sequential], **server_kw):
        self.viper = viper
        self.models: List[Sequential] = []
        self._tracer = None

        def builder():
            model = build()
            self.models.append(model)
            if self._tracer is not None:
                self._wrap_model(model)
            return model

        self.consumer = viper.consumer(builder)
        self.sub = self.consumer.subscribe()
        self.server = InferenceServer(self.consumer, MODEL, **server_kw)
        # Set by coupled_train_serve: the training side of the deployment.
        self.train_model: Optional[Sequential] = None
        self.adapter = None
        self.save_proxy = None

    def staged_bytes(self, record) -> int:
        """Real bytes the destination tier holds for ``record``."""
        node = self.viper.consumer_node
        store = {
            "gpu": node.gpu, "host_dram": node.dram, "pfs": self.viper.cluster.pfs,
        }[record.location]
        return store.stat(record.path).real_bytes

    def _stores(self) -> list:
        v = self.viper
        stores = [v.cluster.pfs]
        for node in (v.producer_node, v.consumer_node):
            stores += [node.store(TierKind.GPU_HBM), node.store(TierKind.HOST_DRAM)]
        return stores

    def evictions(self) -> int:
        return sum(len(store.eviction_log) for store in self._stores())

    def _wrap_model(self, model) -> None:
        self._tracer.wrap(model, "load_state_dict", "dnn.models.load_state_dict")
        self._tracer.wrap(model, "predict", "dnn.models.predict")

    def install_spans(self, tracer) -> None:
        """Put ``tracer``'s spans around the public methods of every live
        object of this deployment (span name = layer name + method)."""
        self._tracer = tracer
        w = tracer.wrap
        v, h, srv = self.viper, self.viper.handler, self.server
        w(h, "save_weights", "core.transfer.handler.save_weights")
        w(h, "load_weights", "core.transfer.handler.load_weights")
        w(h.serializer, "dumps", "dnn.serialization.dumps")
        w(h.serializer, "loads", "dnn.serialization.loads")
        # A module function: timed by patching the name the handler calls.
        w(handler_module, "serialize_pipelined",
          "core.transfer.pipeline.serialize_pipelined")
        w(h.delta, "encode_for_save", "core.transfer.delta.encode_for_save")
        w(h.delta, "decode_for_load", "core.transfer.delta.decode_for_load")
        w(h.delta, "register_loaded", "core.transfer.delta.register_loaded")
        w(h.engine, "drain", "core.transfer.engine.drain")
        for store in self._stores():
            w(store, "put", "substrates.memory.storage.put")
            w(store, "get", "substrates.memory.storage.get")
        w(v.metadata, "publish_version", "core.metadata.publish_version")
        w(v.metadata, "latest", "core.metadata.latest")
        w(v.metadata, "record", "core.metadata.record")
        w(v.broker, "publish", "core.notification.publish")
        w(v.broker, "heartbeat", "resilience.health.heartbeat")
        w(self.sub, "drain", "core.notification.drain")
        w(v, "drain", "core.api.drain")
        w(self.consumer, "refresh", "core.api.refresh")
        w(self.consumer, "apply_update", "core.api.apply_update")
        w(self.consumer, "stage_candidate", "core.api.stage_candidate")
        w(self.consumer, "promote_candidate", "core.api.promote_candidate")
        w(srv, "poll_updates", "serving.server.poll_updates")
        w(srv, "handle", "serving.server.handle")
        if srv.admission is not None:
            w(srv.admission, "admit", "serving.admission.admit")
            w(srv.admission, "release", "serving.admission.release")
        if srv.rollout is not None:
            w(srv.rollout, "maybe_stage", "rollout.maybe_stage")
            w(srv.rollout, "tick", "rollout.tick")
            w(srv.rollout, "route", "rollout.route")
            w(srv.rollout, "observe_primary", "rollout.observe")
            w(srv.rollout, "observe_canary", "rollout.observe")
        # The null objects are process-wide singletons: leave them alone.
        if v.freshness.enabled:
            w(v.freshness, "record_serve", "obs.freshness.record_serve")
            w(v.freshness, "record_publish", "obs.freshness.record_publish")
            w(v.freshness, "record_swap", "obs.freshness.record_swap")
        if v.lineage.enabled:
            for attr in ("record", "record_header", "record_once"):
                w(v.lineage, attr, "obs.lineage.record")
        for model in self.models:
            self._wrap_model(model)
        if self.train_model is not None:
            w(self.train_model, "train_batch", "dnn.training.train_batch")
        if self.adapter is not None:
            w(self.adapter, "observe", "core.predictor.adapter.observe")
        if self.save_proxy is not None:
            w(self.save_proxy, "save_weights", "core.callback.save_weights")

    def close(self) -> None:
        if self._tracer is not None:
            self._tracer.unwrap()
        self.viper.close()


class Run:
    """Samples, counters and check results of one worker run."""

    def __init__(self, opts: Options):
        self.opts = opts
        self.dep: Optional[Deployment] = None
        self.attempted = 0
        self.failed = 0
        self.checks: Dict[str, bool] = {}
        self.setup_s = 0.0
        self.t_start = 0.0
        self.tracer = None
        # Wall-clock samples, seconds.  In a traced run the samples taken
        # before the spans go in land in the ``ref_*`` arrays instead.
        self.update_wall = array("d")
        self.stall_wall = array("d")
        self.apply_wall = array("d")
        self.request_wall = array("d")
        self.ref_update_wall = array("d")
        self.ref_request_wall = array("d")
        #: share of each traced update's wall time spent inside spans
        self.attributed = array("d")
        # Exact (sim-clock / byte-count) samples.
        self.update_sim = array("d")
        self.wire_bytes = array("d")
        self.payload_bytes = 0
        #: Consecutive parts the timing samples are split into; a timing
        #: metric is the lowest of the parts' medians (the calmest part).
        self.looks = 1
        #: sizes and workload-scoped results (cil, shed counts, ...)
        self.scoped: Dict[str, float] = {}
        #: fingerprint of the generated inputs
        self.input_digest = ""

    def deploy(self, viper: Viper, build, **server_kw) -> Deployment:
        """The deployment under test; the worker closes it when the run
        ends, however it ends."""
        self.dep = Deployment(viper, build, **server_kw)
        return self.dep

    def check(self, name: str, ok) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def ready(self) -> bool:
        """End of set-up: everything after this is the timed run.  False
        when this process was only asked to set up."""
        self.setup_s = time.time() - self.opts.t0
        self.t_start = now()
        return not self.opts.setup_only

    def elapsed(self) -> float:
        return now() - self.t_start

    def iterations(self, *, smoke_count: int, at_least: int):
        """Drive a timed loop: yields until ``--seconds`` have passed (at
        ``--smoke`` size: ``smoke_count`` times), but ``at_least`` times,
        and puts the spans in on the way when the run is traced."""
        done = 0
        while True:
            if self.opts.smoke:
                progress = done / smoke_count
            else:
                progress = self.elapsed() / self.opts.seconds
            if progress >= 1.0 and done >= at_least:
                return
            self.start_tracing_if_due(progress)
            yield done
            done += 1

    # -- traced runs -------------------------------------------------------
    @property
    def tracing(self) -> bool:
        return self.tracer is not None

    def start_tracing_if_due(self, progress: float) -> None:
        """Put the spans in once ``progress`` (0..1 of the run) has passed
        the untraced reference stretch."""
        if self.opts.trace and not self.tracing and progress >= UNTRACED_SHARE:
            from benchmarks.e2e.spans import SpanTracer

            self.tracer = SpanTracer()
            self.dep.install_spans(self.tracer)

    def begin_trace(self) -> Optional[float]:
        """Start of one update's life: a new trace id, and the mark that
        :meth:`spans_since` measures from.  None when not tracing."""
        if self.tracer is None:
            return None
        self.tracer.trace_id += 1
        return self.tracer.root_seconds()

    def spans_since(self, mark: Optional[float]) -> Optional[float]:
        if mark is None or self.tracer is None:
            return None
        return self.tracer.root_seconds() - mark

    # -- samples -----------------------------------------------------------
    def record_update(self, wall: float, in_spans: Optional[float]) -> None:
        if self.opts.trace and not self.tracing:
            self.ref_update_wall.append(wall)
            return
        self.update_wall.append(wall)
        if in_spans is not None:
            self.attributed.append(in_spans / wall)

    def record_request(self, wall: float) -> None:
        if self.opts.trace and not self.tracing:
            self.ref_request_wall.append(wall)
        else:
            self.request_wall.append(wall)
