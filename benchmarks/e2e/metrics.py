"""From a finished :class:`~benchmarks.e2e.workloads.Run` to named metrics.

Three groups, all ``{name: {"value": number, "unit": str}}``:

- :func:`end_to_end` — the metrics every workload produces; these are the
  ``end_to_end`` list of ``BENCHMARK.json`` and carry its bounds;
- :func:`scoped` — end-to-end metrics only some workloads produce (``cil``,
  the tail percentiles, the training overhead);
  :data:`benchmarks.e2e.contract.SCOPED` holds their units, directions,
  bounds and workloads;
- :func:`per_layer` — the traced run's layer rows, the ``per_layer`` list
  of ``BENCHMARK.json``.  A layer a workload never calls reads 0.
"""

from __future__ import annotations

import resource
import statistics
from typing import Dict

from benchmarks.e2e.contract import BYTE_PATH, SCOPED, SERVE, percentile
from benchmarks.e2e.harness import Run

__all__ = ["end_to_end", "scoped", "per_layer"]


def _m(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _median(values) -> float:
    return statistics.median(values) if len(values) else 0.0


def _calmest_median(values, looks: int) -> float:
    """Median of ``values``; with ``looks`` > 1, the lowest of the medians
    of that many consecutive parts (the host only ever slows a part down)."""
    n = len(values)
    if looks <= 1 or n < 3 * looks:
        return _median(values)
    return min(
        statistics.median(values[i * n // looks:(i + 1) * n // looks])
        for i in range(looks)
    )


def end_to_end(run: Run) -> Dict[str, dict]:
    def p50(values):
        return _calmest_median(values, run.looks)

    return {
        "setup_s": _m(run.setup_s, "s"),
        "update_wall_ms_p50": _m(p50(run.update_wall) * 1e3, "ms"),
        "producer_stall_wall_ms_p50": _m(p50(run.stall_wall) * 1e3, "ms"),
        "consumer_apply_wall_ms_p50": _m(p50(run.apply_wall) * 1e3, "ms"),
        "request_wall_us_p50": _m(p50(run.request_wall) * 1e6, "us"),
        "update_sim_s_p50": _m(_median(run.update_sim), "s_sim"),
        "wire_bytes_per_update": _m(
            sum(run.wire_bytes) / max(len(run.wire_bytes), 1), "B"
        ),
        "peak_rss_mb": _m(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def scoped(run: Run) -> Dict[str, dict]:
    """The workload-scoped end-to-end metrics this workload produces."""
    name = run.opts.workload
    s = run.scoped
    values = {
        "failed_ops_share": (
            run.failed
            + s.get("shed_deadline", 0) + s.get("shed_rate", 0)
            + s.get("shed_concurrency", 0)
        ) / max(run.attempted, 1),
    }
    if name in BYTE_PATH and len(run.update_wall):
        values["update_wall_ms_p90"] = percentile(run.update_wall, 0.90) * 1e3
        values["update_mb_s"] = (
            run.payload_bytes * len(run.update_wall) / 1e6 / sum(run.update_wall)
        )
    if name in SERVE and len(run.request_wall):
        values["request_wall_us_p99"] = percentile(run.request_wall, 0.99) * 1e6
    for key in ("cil", "train_stall_sim_s", "train_overhead_wall_s"):
        if name in SCOPED[key][3]:
            values[key] = s[key]
    return {k: _m(v, SCOPED[k][0]) for k, v in values.items()}


def per_layer(run: Run) -> Dict[str, dict]:
    """Layer rows of a traced run (medians unless the name says total)."""
    t, dep = run.tracer, run.dep
    s = run.scoped
    srv, viper = dep.server, dep.viper
    mb = run.payload_bytes / 1e6

    def ms(name, **kw):
        return t.median(name, **kw) * 1e3

    def us(name, **kw):
        return t.median(name, **kw) * 1e6

    def mb_s(name):
        sec = t.median(name)
        return mb / sec if sec else 0.0

    # An idle poll is one that neither loaded nor promoted anything: no
    # consumer/rollout work below it beyond drain + latest + tick.
    poll = t.durations("serving.server.poll_updates")
    poll_idle = _median(poll) * 1e6
    handle = us("serving.server.handle")
    predict = us("dnn.models.predict")
    observe = t.durations("core.predictor.adapter.observe")
    refits = [d for d in observe if d > 0.010]
    ref = run.ref_update_wall if len(run.ref_update_wall) else run.ref_request_wall
    cur = run.update_wall if len(run.ref_update_wall) else run.request_wall
    overhead = (_median(cur) / _median(ref) - 1.0) * 100.0 if len(ref) and len(cur) else 0.0
    snap = viper.stats.snapshot()
    admission = srv.admission.snapshot() if srv.admission is not None else {}
    rollout = srv.rollout
    chunks_total = s.get("chunks_total", 0)
    rows = {
        "dnn.serialization.dumps_ms": (ms("dnn.serialization.dumps"), "ms"),
        "dnn.serialization.dumps_mb_s": (mb_s("dnn.serialization.dumps"), "MB/s"),
        "dnn.serialization.loads_ms": (ms("dnn.serialization.loads"), "ms"),
        "core.transfer.pipeline.serialize_ms": (
            ms("core.transfer.pipeline.serialize_pipelined"), "ms"),
        "core.transfer.delta.encode_ms": (
            ms("core.transfer.delta.encode_for_save"), "ms"),
        "core.transfer.delta.encode_mb_s": (
            mb_s("core.transfer.delta.encode_for_save"), "MB/s"),
        "core.transfer.delta.decode_ms": (
            ms("core.transfer.delta.decode_for_load"), "ms"),
        "core.transfer.delta.decode_mb_s": (
            mb_s("core.transfer.delta.decode_for_load"), "MB/s"),
        "core.transfer.delta.register_ms": (
            ms("core.transfer.delta.register_loaded"), "ms"),
        "core.transfer.delta.dedup_hit_ratio": (
            s.get("chunks_reused", 0) / chunks_total if chunks_total else 0.0,
            "ratio"),
        "core.transfer.delta.chunks_reused": (s.get("chunks_reused", 0), "count"),
        "core.transfer.delta.chunks_total": (chunks_total, "count"),
        "core.transfer.delta.fallbacks": (s.get("delta_fallbacks", 0), "count"),
        "substrates.memory.storage.put_ms": (ms("substrates.memory.storage.put"), "ms"),
        "substrates.memory.storage.get_ms": (ms("substrates.memory.storage.get"), "ms"),
        "substrates.memory.storage.evictions": (s.get("evictions", 0), "count"),
        "core.metadata.publish_ms": (ms("core.metadata.publish_version"), "ms"),
        "core.metadata.latest_us": (us("core.metadata.latest"), "us"),
        "core.notification.publish_us": (us("core.notification.publish"), "us"),
        "core.notification.drain_us": (us("core.notification.drain"), "us"),
        "core.notification.delivered": (dep.sub.delivered, "count"),
        "core.notification.dropped": (dep.sub.coalesced, "count"),
        "core.transfer.handler.save_self_ms": (
            ms("core.transfer.handler.save_weights", self_time=True), "ms"),
        "core.transfer.handler.load_self_ms": (
            ms("core.transfer.handler.load_weights", self_time=True), "ms"),
        "dnn.models.load_state_dict_ms": (ms("dnn.models.load_state_dict"), "ms"),
        "core.api.apply_self_ms": (
            ms("core.api.apply_update", self_time=True)
            or ms("core.api.stage_candidate", self_time=True), "ms"),
        "core.transfer.engine.drain_ms_total": (
            t.total("core.transfer.engine.drain") * 1e3, "ms"),
        "resilience.retries": (snap.retries, "count"),
        "resilience.breaker_trips": (snap.breaker_trips, "count"),
        "resilience.heartbeat_us": (us("resilience.health.heartbeat"), "us"),
        "dnn.models.predict_us": (predict, "us"),
        "serving.server.handle_us": (handle, "us"),
        "serving.server.poll_idle_us": (poll_idle, "us"),
        "serving.server.overhead_us": (poll_idle + handle - predict, "us"),
        "serving.server.cil": (srv.cumulative_loss, "loss"),
        "serving.admission.admit_us": (us("serving.admission.admit"), "us"),
        "serving.admission.admitted": (admission.get("admitted", 0), "count"),
        "serving.admission.shed_deadline": (admission.get("deadline", 0), "count"),
        "serving.admission.shed_rate": (admission.get("rate", 0), "count"),
        "serving.admission.shed_concurrency": (
            admission.get("concurrency", 0), "count"),
        "rollout.route_us": (us("rollout.route"), "us"),
        "rollout.observe_us": (us("rollout.observe"), "us"),
        "rollout.promotions": (rollout.promotions if rollout else 0, "count"),
        "rollout.rollbacks": (rollout.rollbacks if rollout else 0, "count"),
        "rollout.canary_share": (
            s.get("canary_share", 0.0), "ratio"),
        "obs.freshness.record_serve_us": (us("obs.freshness.record_serve"), "us"),
        "obs.lineage.record_us": (us("obs.lineage.record"), "us"),
        "core.predictor.adapter.observe_ms_total": (
            t.total("core.predictor.adapter.observe") * 1e3, "ms"),
        "core.predictor.adapter.refits": (s.get("refits", 0), "count"),
        "core.predictor.adapter.refit_ms": (_median(refits) * 1e3, "ms"),
        "core.callback.save_ms": (ms("core.callback.save_weights"), "ms"),
        "core.callback.checkpoints": (s.get("checkpoints", 0), "count"),
        "core.callback.stall_sim_s": (s.get("train_stall_sim_s", 0.0), "s_sim"),
        "core.callback.overhead_wall_s": (s.get("train_overhead_wall_s", 0.0), "s"),
        "dnn.training.iter_ms": (ms("dnn.training.train_batch"), "ms"),
        "trace.overhead_pct": (overhead, "%"),
        "trace.attributed_share": (_median(run.attributed), "ratio"),
    }
    return {name: _m(value, unit) for name, (value, unit) in rows.items()}
