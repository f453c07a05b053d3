"""The three byte-path workloads: one 24 MB model published over and over
and served between updates — ``full_update``, ``full_update_delta`` and
``sparse_update``."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro import Viper
from repro.core.transfer.pipeline import PipelineConfig
from repro.core.transfer.strategies import CaptureMode
from repro.dnn.layers import Dense
from repro.dnn.models import Sequential
from repro.errors import ViperError

from benchmarks.e2e.harness import MODEL, Run, digest, now, tc1_save_kw

__all__ = ["run_full_update", "run_full_update_delta", "run_sparse_update"]

#: Versions saved before timing starts: the 40 GB HBM tier holds 8 of the
#: 4.7 GB (virtual) checkpoints, so after 12 the store evicts one object per
#: put and the process's RSS is flat.
WARMUP_VERSIONS = 12


def _same_state(model: Sequential, state: Dict[str, np.ndarray]) -> bool:
    """Byte equality of a live model's parameters with ``state``, in place
    (``state_dict()`` would copy 24 MB per check and churn the heap)."""
    names = set()
    for layer in model.layers:
        for pname, value in layer.params.items():
            key = f"{layer.name}/{pname}"
            names.add(key)
            if key not in state or not np.array_equal(value, state[key]):
                return False
    return names == set(state)


_DENSE_LAYERS = 15
_DENSE_UNITS = 632
_REQUESTS_PER_VERSION = 4


def _run_byte_path(
    run: Run, *, feature_path: bool, changed_tail: Optional[int]
) -> None:
    """One 24 MB model updated over and over, served between updates.

    ``feature_path`` turns the pipelined serializer and the delta encoder
    on; ``changed_tail`` limits the mutation to the last N tensors.
    """
    opts = run.opts
    layers = 3 if opts.smoke else _DENSE_LAYERS
    units = 64 if opts.smoke else _DENSE_UNITS
    warmup = 3 if opts.smoke else WARMUP_VERSIONS

    def build():
        return Sequential(
            [Dense(units, name=f"dense{i:02d}") for i in range(layers)],
            input_shape=(units,), name=MODEL, seed=opts.seed,
        )

    rng = np.random.default_rng(opts.seed)
    state = build().state_dict()
    names = list(state)
    changed = names if changed_tail is None else names[-changed_tail:]
    noise = {
        k: (rng.standard_normal(state[k].shape) * 1e-3).astype(np.float32)
        for k in changed
    }
    x = rng.standard_normal((1, units)).astype(np.float32)
    run.input_digest = digest(x, *(noise[k] for k in changed))
    run.payload_bytes = sum(v.nbytes for v in state.values())

    if feature_path:
        viper = Viper(
            pipeline=PipelineConfig(enabled=True, chunk_bytes=4 << 20, lanes=2),
            delta=True,
        )
    else:
        viper = Viper()
    dep = run.deploy(viper, build, t_infer=0.005)
    server = dep.server
    save_kw = tc1_save_kw(CaptureMode.SYNC)

    def one_version(timed: bool) -> None:
        for k in changed:
            state[k] += noise[k]
        mark = run.begin_trace()
        run.attempted += 2 + _REQUESTS_PER_VERSION
        try:
            t0 = now()
            res = viper.save_weights(MODEL, state, **save_kw)
            t1 = now()
            swapped = server.poll_updates()
            t2 = now()
            _, first = server.handle(x)
            t3 = now()
            in_spans = run.spans_since(mark)
            idle = []
            for _ in range(_REQUESTS_PER_VERSION - 1):
                r0 = now()
                server.poll_updates()
                server.handle(x)
                idle.append(now() - r0)
        except ViperError:
            run.failed += 1
            return
        # Untimed from here: the benchmark's own verification.
        run.check("poll_swapped", swapped)
        run.check("served_version_is_published", first.model_version == res.version)
        run.check(
            "live_state_byte_equal", _same_state(dep.consumer.current_model(), state)
        )
        if timed:
            run.record_update(t3 - t0, in_spans)
            run.stall_wall.append(t1 - t0)
            run.apply_wall.append(t2 - t1)
            for wall in idle:
                run.record_request(wall)
            run.update_sim.append(res.update_latency)
            run.wire_bytes.append(dep.staged_bytes(res.record))

    for _ in range(warmup):
        one_version(timed=False)
    if not run.ready():
        return
    evictions0, stats0 = dep.evictions(), viper.stats.snapshot()
    for _ in run.iterations(smoke_count=6, at_least=4):
        one_version(timed=True)
    stats1 = viper.stats.snapshot()
    run.scoped.update(
        versions=len(run.update_sim),
        evictions=dep.evictions() - evictions0,
        chunks_total=stats1.delta_chunks_total - stats0.delta_chunks_total,
        chunks_reused=stats1.delta_chunks_reused - stats0.delta_chunks_reused,
        delta_fallbacks=stats1.delta_fallbacks - stats0.delta_fallbacks,
    )


def run_full_update(run: Run) -> None:
    _run_byte_path(run, feature_path=False, changed_tail=None)


def run_full_update_delta(run: Run) -> None:
    _run_byte_path(run, feature_path=True, changed_tail=None)


def run_sparse_update(run: Run) -> None:
    # The last 4 tensors are the last 2 Dense layers: 13 % of the bytes.
    _run_byte_path(run, feature_path=True, changed_tail=4)


