"""Model Weights Handler: the memory-first save/load facade (paper Fig. 7).

The handler processes the producer's *save* requests and the consumer's
*load* requests end to end:

save path (producer node)
    serialize -> select strategy -> stage the blob into the destination
    (a one-sided put into the consumer's GPU/host memory, or a PFS write)
    -> publish metadata -> publish a notification.  In async mode
    everything past the local snapshot runs on the
    :class:`~repro.core.transfer.engine.AsyncTransferEngine` worker.

load path (consumer node)
    read the latest metadata record -> fetch the blob from its location
    -> deserialize -> hand the state dict to the caller (who stages it
    into the double buffer).

The destination tier stores hold the *real* serialized bytes; the
simulated time for each phase comes from the strategy timing laws in
:mod:`repro.core.transfer.strategies`.  Writing into the consumer's
:class:`~repro.substrates.memory.storage.TierStore` models the one-sided
RDMA put the paper's MPI/GPUDirect path performs — no receiver CPU
involvement, data lands directly in remote memory.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, replace
from functools import partial
from typing import (
    Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple, Union,
)

import numpy as np

from repro.errors import (
    CircuitOpenError,
    DeltaBaseError,
    IntegrityError,
    MetadataError,
    ObjectNotFoundError,
    RetriesExhausted,
    TransferError,
)
from repro.resilience.faults import default_seed
from repro.resilience.retry import RetryPolicy, execute_with_retry
from repro.obs.freshness import NULL_FRESHNESS
from repro.obs.lineage import NULL_LINEAGE, TraceContext
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER
from repro.core.stats import StatsManager
from repro.substrates.cost import Cost
from repro.substrates.cluster.cluster import Cluster
from repro.substrates.cluster.node import ComputeNode
from repro.substrates.memory.storage import TierStore
from repro.substrates.profiles import HardwareProfile
from repro.dnn.serialization import Serializer, ViperSerializer, state_dict_nbytes
from repro.core.metadata import MetadataStore, ModelRecord
from repro.core.notification import NotificationBroker
from repro.core.transfer.delta import (
    DeltaConfig,
    DeltaManager,
    DeltaStats,
    is_delta_frame,
)
from repro.core.transfer.engine import AsyncTransferEngine, TransferJob
from repro.core.transfer.pipeline import PipelineConfig, serialize_pipelined
from repro.core.transfer.selector import TransferSelector
from repro.core.transfer.strategies import (
    CaptureMode,
    StrategyTimings,
    TransferStrategy,
    compute_timings,
    failover_chain,
    load_cost_for_location,
)

__all__ = ["UpdateResult", "LoadResult", "ModelWeightsHandler"]


class _Tier(NamedTuple):
    """One destination tier, in every vocabulary the handler speaks."""

    strategy: TransferStrategy
    location: str      # ModelRecord.location / replica name
    cost_key: str      # load_cost_for_location's key
    store: TierStore


@dataclass(frozen=True)
class UpdateResult:
    """Outcome of one save request."""

    model_name: str
    version: int
    strategy: TransferStrategy
    mode: CaptureMode
    stall: Cost          # charged to the producer's training loop
    background: Cost     # charged to the engine thread (async only)
    load: Cost           # what the consumer will pay to pick this up
    record: ModelRecord

    @property
    def update_latency(self) -> float:
        """Figure 8's end-to-end latency for this update."""
        return self.stall.total + self.background.total + self.load.total


@dataclass(frozen=True)
class LoadResult:
    """Outcome of one load request.

    ``state`` is read-only views over the verified blob (or the delta
    reconstruction's segments), whatever the deployment's knobs: the
    load copies no tensor, and a caller that wants to modify one copies
    it first.
    """

    model_name: str
    version: int
    state: Dict[str, np.ndarray]
    cost: Cost
    record: ModelRecord
    #: which replica actually served this load (may differ from the
    #: record's primary location after eviction or node loss).
    location: str = ""


class ModelWeightsHandler:
    """Save/load engine shared by one producer/consumer pair.

    One handler instance is producer-side (owns the engine and flusher);
    the consumer side may share the same object (same process in this
    reproduction) and only calls :meth:`load_weights`.
    """

    def __init__(
        self,
        cluster: Cluster,
        producer: ComputeNode,
        consumer: ComputeNode,
        profile: HardwareProfile,
        *,
        metadata: Optional[MetadataStore] = None,
        broker: Optional[NotificationBroker] = None,
        serializer: Optional[Serializer] = None,
        selector: Optional[TransferSelector] = None,
        flush_history: bool = False,
        retention=None,
        topic: str = "model-updates",
        tracer=None,
        metrics=None,
        pipeline: Optional[PipelineConfig] = None,
        delta: Union[DeltaConfig, bool, None] = None,
        retry_policy: Optional[RetryPolicy] = None,
        failover: bool = True,
        lineage=None,
        freshness=None,
        stats=None,
        breakers=None,
    ):
        self.cluster = cluster
        self.producer = producer
        self.consumer = consumer
        self.profile = profile
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.lineage = lineage if lineage is not None else NULL_LINEAGE
        self.freshness = freshness if freshness is not None else NULL_FRESHNESS
        self.metadata = metadata if metadata is not None else MetadataStore()
        self.broker = (
            broker
            if broker is not None
            else NotificationBroker(metrics=self.metrics)
        )
        self.serializer = serializer if serializer is not None else ViperSerializer()
        self.selector = selector if selector is not None else TransferSelector(
            gpu_direct_available=True,
            gpu_staging_budget=consumer.gpu.spec.capacity_bytes // 2,
            host_staging_budget=consumer.dram.spec.capacity_bytes // 2,
        )
        #: The one strategy <-> location <-> store/cost-key table.
        self._tiers = (
            _Tier(TransferStrategy.GPU_TO_GPU, "gpu", "gpu", consumer.gpu),
            _Tier(TransferStrategy.HOST_TO_HOST, "host_dram", "dram", consumer.dram),
            _Tier(TransferStrategy.PFS, "pfs", "pfs", cluster.pfs),
        )
        self.topic = topic
        self.flush_history = flush_history
        self.retention = retention
        self.pipeline = pipeline if pipeline is not None else PipelineConfig()
        self.stats = stats if stats is not None else StatsManager(metrics=self.metrics)
        #: Optional per-site circuit breakers (BreakerBoard).  A tripped
        #: site is skipped without burning its retry budget: staging
        #: moves straight down the failover chain, loads move to the
        #: next-cheapest replica.
        self.breakers = breakers
        #: Delta wire path (strictly opt-in; a disabled manager leaves
        #: the monolithic path byte-for-byte intact).  ``delta`` is a
        #: DeltaConfig or a bool (True = the defaults, on).
        self.delta = DeltaManager(
            delta
            if isinstance(delta, DeltaConfig)
            else DeltaConfig(enabled=bool(delta)),
            serializer=self.serializer,
        )
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.failover = failover
        # Seeded jitter streams (keyed off VIPER_FAULT_SEED like the fault
        # plans) keep retry/failover sequences reproducible across runs;
        # one stream per thread that draws, so interleaving cannot leak.
        self._retry_rng = random.Random(f"{default_seed()}/handler.retry")
        # Two instances of the one worker, so a history flush never
        # queues behind a delivery (paper §4.4's two background streams).
        self.engine, self.flusher = (
            AsyncTransferEngine(
                name,
                tracer=self.tracer,
                metrics=self.metrics,
                retry_policy=self.retry_policy,
                retry_rng=random.Random(f"{default_seed()}/{stream}.retry"),
            ).start()
            for name, stream in (
                ("viper-engine", "engine"), ("viper-flusher", "flusher")
            )
        )
        self._clock_lock = threading.Lock()
        self._sim_now = 0.0
        self._versions: Dict[str, int] = {}
        # Crash-point hook (duck-typed CrashPlan or None): checked at the
        # publish-path kill points; zero overhead when no plan is armed.
        self.crashpoints = None

    def _crash(self, site: str) -> None:
        cp = self.crashpoints
        if cp is not None:
            cp.reached(site)

    def _tier(self, key: Union[TransferStrategy, str]) -> _Tier:
        """The tier row for a strategy or a metadata location."""
        for tier in self._tiers:
            if key is tier.strategy or key == tier.location:
                return tier
        raise TransferError(f"unknown checkpoint location {key!r}")

    def _walk(
        self, hops: Iterable[Tuple[str, Any]], attempt: Callable[[Any], Any]
    ) -> Optional[Tuple[Any, Any, float]]:
        """Run ``attempt(target)`` at each ``(site, target)`` hop in order.

        A hop whose breaker is open is skipped without burning its retry
        budget; every other hop gets the full budget and reports the
        outcome to its breaker.  Returns ``(target, value, backoff)`` for
        the first hop that succeeds, ``backoff`` being the simulated
        seconds actually waited on the way, or None when ``hops`` was
        empty.  Otherwise raises the last
        :class:`~repro.errors.RetriesExhausted` when any hop was tried,
        else :class:`~repro.errors.CircuitOpenError` naming the first
        refused hop with the soonest probe time among the refused.
        """
        backoff = 0.0
        last: Optional[RetriesExhausted] = None
        refused: List[str] = []
        for site, target in hops:
            if self.breakers is not None and not self.breakers.allow(
                site, self.sim_now
            ):
                refused.append(site)
                continue
            try:
                outcome = execute_with_retry(
                    lambda t=target: attempt(t),
                    self.retry_policy,
                    site=site,
                    rng=self._retry_rng,
                    tracer=self.tracer,
                    metrics=self.metrics,
                    on_retry=lambda s, _a, _e: self.stats.record_retry(s),
                )
            except RetriesExhausted as exc:
                if self.breakers is not None:
                    self.breakers.failure(site, self.sim_now)
                backoff += exc.backoff_seconds
                last = exc
                continue
            if self.breakers is not None:
                self.breakers.success(site, self.sim_now)
            return target, outcome.value, backoff + outcome.backoff_seconds
        if last is not None:
            raise last
        if refused:
            # Nothing was attempted, so nothing should retry: fail fast
            # and distinctly with the soonest probe hint.
            raise CircuitOpenError(
                f"open circuits at {', '.join(refused)}",
                site=refused[0],
                retry_after=min(
                    self.breakers.retry_after(s, self.sim_now) for s in refused
                ),
            )
        return None

    # ------------------------------------------------------------------
    # Simulated wall clock for metadata timestamps
    # ------------------------------------------------------------------
    def _advance_now(self, dt: float) -> float:
        with self._clock_lock:
            self._sim_now += dt
            return self._sim_now

    @property
    def sim_now(self) -> float:
        with self._clock_lock:
            return self._sim_now

    # ------------------------------------------------------------------
    # Save path
    # ------------------------------------------------------------------
    def next_version(self, model_name: str) -> int:
        with self._clock_lock:
            v = self._versions.get(model_name, 0) + 1
            self._versions[model_name] = v
            return v

    def save_weights(
        self,
        model_name: str,
        state: Dict[str, np.ndarray],
        *,
        mode: CaptureMode = CaptureMode.ASYNC,
        version: Optional[int] = None,
        virtual_bytes: Optional[int] = None,
        virtual_tensors: Optional[int] = None,
        train_iteration: int = 0,
        train_loss: float = float("nan"),
        strategy: Optional[TransferStrategy] = None,
    ) -> UpdateResult:
        """Capture and deliver one checkpoint of ``state``.

        ``virtual_bytes`` / ``virtual_tensors`` scale the *timing* to the
        paper-scale checkpoint while the real (small) tensors flow through
        the data path.  They default to the actual payload size.
        """
        if not state:
            raise TransferError("save_weights: empty state dict")
        payload_bytes = state_dict_nbytes(state)
        vbytes = payload_bytes if virtual_bytes is None else int(virtual_bytes)
        vtensors = len(state) if virtual_tensors is None else int(virtual_tensors)
        chosen = strategy if strategy is not None else self.selector.select(vbytes)
        ver = self.next_version(model_name) if version is None else version
        # Mint this version's causal identity at capture; everything
        # downstream (record, notification, flush job, chunk spans)
        # carries it, never re-derives it.
        ctx = (
            TraceContext.make(model_name, ver) if self.lineage.enabled else None
        )
        save_span = self.tracer.span(
            "handler.save",
            track="producer",
            model=model_name,
            version=ver,
            strategy=chosen.value,
            mode=mode.value,
            nbytes=vbytes,
        )
        with save_span as sp:
            if ctx is not None and self.tracer.enabled:
                # Re-parent under the save span so the distributed trace
                # hangs off the producing operation.
                ctx = ctx.child(sp.span_id)
            # Delta encode before the timing law: the law's wire terms
            # scale to what actually moves.  Compare/CRC CPU is a real
            # (wall-clock) producer cost; the simulated law scales bytes.
            frame: Optional[bytes] = None
            dstats: Optional[DeltaStats] = None
            if self.delta.enabled and chosen is not TransferStrategy.PFS:
                had_base = self.delta.held_version(model_name) is not None
                with self.tracer.span(
                    "handler.delta_encode", track="producer", version=ver
                ) as dsp:
                    # The manager serializes: it copies and CRCs only the
                    # pieces that changed, and joins the blob only when it
                    # ships whole (``blob_of``, on first use).
                    frame, dstats, saved = self.delta.encode_for_save(
                        model_name, ver, state
                    )
                    blob_of = saved.blob
                    if frame is None and had_base:
                        # A base was negotiated but the recipe lost: the
                        # piece grid moved, or the frame would not be
                        # smaller than the blob.
                        self.stats.record_delta_fallback("encode")
                    dsp.set(
                        mode=dstats.mode,
                        wire_bytes=dstats.bytes_on_wire,
                        dedup_ratio=round(dstats.dedup_hit_ratio, 4),
                    )
            else:
                with self.tracer.span("handler.serialize", track="producer"):
                    if self.delta.enabled:
                        # The durable root always ships the self-contained
                        # blob; retain it so later volatile-tier saves can
                        # diff it.
                        blob_of = self.delta.remember_saved(model_name, ver, state).blob
                    else:
                        # One dump_chunks pass and one join: the immutable
                        # blob the stores and the flusher share.
                        blob = serialize_pipelined(self.serializer, state)

                        def blob_of() -> bytes:
                            return blob
            wire_scale = dstats.wire_fraction if dstats is not None else 1.0
            timings = compute_timings(
                self.profile, self.serializer, chosen, mode, vbytes, vtensors,
                pipeline=self.pipeline, wire_scale=wire_scale,
            )
            result = self._stage_and_publish(
                model_name, blob_of, chosen, mode, timings, ver, vbytes,
                vtensors, train_iteration, train_loss, ctx=ctx,
                frame=frame, dstats=dstats,
            )
            sp.set(sim_stall=result.stall.total, sim_background=result.background.total)
        self.metrics.counter(
            "handler_saves_total", strategy=chosen.value, mode=mode.value
        ).inc()
        self.metrics.histogram(
            "handler_save_stall_sim_seconds", strategy=chosen.value
        ).observe(result.stall.total)
        return result

    def _stage_and_publish(
        self,
        model_name: str,
        blob_of: Callable[[], bytes],
        chosen: TransferStrategy,
        mode: CaptureMode,
        timings: StrategyTimings,
        ver: int,
        vbytes: int,
        vtensors: int,
        train_iteration: int,
        train_loss: float,
        ctx: Optional[TraceContext] = None,
        frame: Optional[bytes] = None,
        dstats: Optional[DeltaStats] = None,
    ) -> UpdateResult:
        key = f"{model_name}/v{ver}"
        header = ctx.to_header() if ctx is not None else ""
        # The frame's size in virtual (paper-scale) bytes, matching every
        # other byte counter; 0 when the monolithic blob ships.
        wire_virtual = (
            max(1, int(round(vbytes * dstats.wire_fraction)))
            if frame is not None
            else 0
        )
        # Optimistic record: the producer's stall was paid for ``chosen``
        # regardless of any later failover, so created_at advances now.
        record = ModelRecord(
            model_name=model_name,
            version=ver,
            nbytes=vbytes,
            location=self._tier(chosen).location,
            path=key,
            ntensors=vtensors,
            durable=(chosen is TransferStrategy.PFS),
            created_at=self._advance_now(timings.stall.total),
            train_iteration=train_iteration,
            train_loss=train_loss,
            trace_ctx=header,
            wire_bytes=wire_virtual,
        )
        if ctx is not None:
            self.lineage.record(
                ctx,
                "capture",
                sim_time=record.created_at,
                actor="producer",
                strategy=chosen.value,
                mode=mode.value,
                nbytes=vbytes,
            )

        def put(strategy: TransferStrategy) -> Cost:
            # Volatile tiers receive the delta frame when one was encoded;
            # the PFS — the crash-recovery root — always receives the
            # self-contained blob, so durability never depends on a
            # consumer-held base surviving a restart.
            ships_frame = frame is not None and strategy is not TransferStrategy.PFS
            return self._tier(strategy).store.put(
                key,
                frame if ships_frame else blob_of(),
                virtual_bytes=self.serializer.wire_bytes(
                    wire_virtual if ships_frame else vbytes
                ),
                nobjects=vtensors,
                version=ver,
            )

        def _deliver() -> Tuple[TransferStrategy, ModelRecord, StrategyTimings, Cost]:
            with self.tracer.span(
                "handler.publish", track="engine", key=key, version=ver
            ):
                chain = failover_chain(chosen) if self.failover else (chosen,)

                def hops():
                    # Down the paper's GPU -> HOST -> PFS chain; the walk
                    # asks for the next hop only when it moves on.
                    for i, strat in enumerate(chain):
                        if i:
                            self.stats.record_failover(chain[i - 1].value, strat.value)
                        yield f"stage.{strat.value}", strat

                final, _, backoff = self._walk(hops(), put)
                shipped = frame is not None and final is not TransferStrategy.PFS
                if frame is not None and not shipped:
                    self.stats.record_delta_fallback("failover")
                self.stats.record_wire(
                    vbytes,
                    wire_virtual if shipped else vbytes,
                    dstats if shipped else None,
                )
                # Kill point: blob staged, metadata not yet journaled.
                # Recovery must not invent a version the journal never saw.
                self._crash("publish.staged")
                if final is chosen:
                    rec, fin = record, timings
                else:
                    # Failover changed where the checkpoint lives: the
                    # published metadata and the deliver/load laws follow
                    # the strategy that actually succeeded.
                    rec = replace(
                        record,
                        location=self._tier(final).location,
                        durable=(final is TransferStrategy.PFS),
                        replicas=(),
                        wire_bytes=wire_virtual if shipped else 0,
                    )
                    fin = compute_timings(
                        self.profile, self.serializer, final, mode,
                        vbytes, vtensors, pipeline=self.pipeline,
                        wire_scale=rec.wire_fraction,
                    )
                cost = self.metadata.publish_version(rec)
                # Lifecycle timestamps on the handler's simulated clock:
                # the transfer lands deliver-time after capture, the
                # publish adds the metadata write, the notify adds the
                # broker push latency.
                t_xfer = record.created_at + fin.deliver.total
                t_pub = t_xfer + cost.total
                if ctx is not None:
                    xfer_attrs = dict(strategy=final.value, key=key)
                    if rec.wire_bytes:
                        xfer_attrs.update(
                            wire_bytes=rec.wire_bytes,
                            bytes=vbytes,
                            dedup_ratio=round(
                                dstats.dedup_hit_ratio, 4
                            ) if dstats is not None else 0.0,
                        )
                    self.lineage.record(
                        ctx, "transfer", sim_time=t_xfer, actor="engine",
                        **xfer_attrs,
                    )
                    self.lineage.record(
                        ctx, "publish", sim_time=t_pub, actor="metadata",
                        location=rec.location, durable=rec.durable,
                    )
                self.freshness.record_publish(model_name, ver, t_pub)
                # Kill point: journaled + published, but consumers were
                # never notified; recovery re-announces from metadata.
                self._crash("publish.metadata")
                self.broker.publish(
                    self.topic,
                    model_name=model_name,
                    version=ver,
                    location=rec.location,
                    now=self.sim_now,
                    payload={"path": key, "nbytes": vbytes},
                    trace_ctx=header,
                )
                if ctx is not None:
                    self.lineage.record(
                        ctx,
                        "notify",
                        sim_time=t_pub + self.broker.push_latency,
                        actor="broker",
                        topic=self.topic,
                    )
                # Kill point: notified but the history flush never ran;
                # the checkpoint is published yet still non-durable.
                self._crash("publish.notified")
                if self.flush_history and final is not TransferStrategy.PFS:
                    self.flusher.submit(
                        TransferJob(
                            f"flush {key}",
                            partial(self._flush, blob_of(), rec),
                        )
                    )
                if backoff:
                    cost = cost + Cost.of("retry.backoff", backoff)
                return final, rec, fin, fin.deliver + cost

        if mode is CaptureMode.SYNC:
            final, rec, fin, cost = _deliver()
            # In sync mode the wire time is already inside the stall; the
            # background components are the metadata write and any retry
            # backoff spent recovering from injected/real faults.
            background = cost.only(("metadata", "retry"))
            return UpdateResult(
                model_name,
                ver,
                final,
                mode,
                timings.stall,
                background,
                fin.load,
                rec,
            )

        job = TransferJob(
            description=f"save {key} via {chosen.value}",
            action=lambda: _deliver()[3],
            nbytes=wire_virtual or vbytes,
        )
        self.engine.submit(job)
        return UpdateResult(
            model_name,
            ver,
            chosen,
            mode,
            timings.stall,
            timings.deliver,
            timings.load,
            record,
        )

    # ------------------------------------------------------------------
    # Load path
    # ------------------------------------------------------------------
    def load_weights(
        self,
        model_name: str,
        version: Optional[int] = None,
    ) -> LoadResult:
        """Fetch the latest (or a specific) checkpoint for a model.

        The load is location-aware (paper Fig. 3's Stats Manager role):
        among the record's replicas, the cheapest tier that still holds
        the blob serves the request — e.g. the consumer-memory copy when
        present, the durable PFS copy after eviction or node loss.
        """
        with self.tracer.span(
            "handler.load", track="consumer", model=model_name
        ) as sp:
            if version is None:
                record, meta_cost = self.metadata.latest(model_name)
                if record is None:
                    raise MetadataError(f"no published checkpoint for {model_name!r}")
            else:
                record, meta_cost = self.metadata.record(model_name, version)
            candidates = self.stats.order(record.replicas)
            # Fetch + verify + deserialize is one retryable unit: a
            # corrupted read (checksum mismatch -> IntegrityError) is
            # re-requested from the same replica, and a permanently corrupt
            # replica falls through to the next (slower, more durable) one.
            # Only a fully-verified state dict ever reaches the caller's
            # double buffer.
            walked = self._walk(
                (
                    (f"load.{loc}", loc)
                    for loc in candidates
                    if record.path in self._tier(loc).store
                ),
                lambda loc: self._fetch_once(record, loc),
            )
            if walked is None:
                self.stats.record_miss()
                raise ObjectNotFoundError(
                    f"no replica of {record.path!r} present in any of "
                    f"{candidates} (evicted before load?)"
                )
            chosen, (state, used_delta), backoff = walked
            cost = meta_cost + load_cost_for_location(
                self.profile,
                self.serializer,
                self._tier(chosen).cost_key,
                record.nbytes,
                record.ntensors,
                pipeline=self.pipeline,
                # A delta frame that small was fetched instead of the full
                # blob; a monolithic fallback pays the full read.
                wire_scale=record.wire_fraction if used_delta else 1.0,
            )
            if backoff:
                cost = cost + Cost.of("retry.backoff", backoff)
            self._advance_now(cost.total)
            self.stats.record_load(
                chosen, record.nbytes, cost.total, fallback=(chosen != candidates[0])
            )
            sp.set(version=record.version, location=chosen, sim_seconds=cost.total)
            return LoadResult(
                model_name, record.version, state, cost, record, location=chosen
            )

    def _fetch_once(
        self, record: ModelRecord, location: str
    ) -> Tuple[Dict[str, np.ndarray], bool]:
        """One fetch attempt: read, reconstruct (delta), deserialize.

        Returns ``(state, used_delta)``.  Verification is layered: a
        delta frame's base identity, op bounds and reconstruction CRC-32
        check first, then the serializer's v2 checksum — a mismatch
        anywhere is counted and re-raised so the retry executor
        re-requests the blob instead of serving garbage.  A frame whose base the consumer no
        longer holds degrades to the producer-retained monolithic blob
        (:class:`~repro.errors.DeltaBaseError` propagates only when that
        fallback is gone too, sending the load to the next replica).
        """
        with self.tracer.span(
            "handler.fetch", track="consumer", location=location
        ):
            blob, _store_cost = self._tier(location).store.get(record.path)
        used_delta = False
        if is_delta_frame(blob):
            with self.tracer.span(
                "handler.delta_decode", track="consumer", location=location
            ):
                try:
                    blob = self.delta.decode_for_load(record.model_name, blob)
                    used_delta = True
                except DeltaBaseError:
                    full = self.delta.full_blob(record.model_name, record.version)
                    if full is None:
                        raise
                    self.stats.record_delta_fallback("missing_base")
                    blob = full
                except IntegrityError:
                    self.stats.record_corruption(location)
                    raise
        with self.tracer.span("handler.deserialize", track="consumer"):
            try:
                # Every load reads the weights in place: read-only views
                # over the verified blob or the reconstruction's segments,
                # whatever the pipeline knob says.  A reconstruction
                # carries its verified out-CRC, so the inner v2 check
                # derives its CRC instead of re-reading.
                state = self.serializer.loads(blob, copy=False)
            except IntegrityError:
                self.stats.record_corruption(location)
                raise
        if self.delta.enabled:
            # Only a fully-verified blob becomes the next negotiation
            # base — corrupt reconstructions can never poison a diff.
            self.delta.register_loaded(record.model_name, record.version, blob)
        return state, used_delta

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def restore_version_counters(self) -> None:
        """Resume version numbering from the replayed metadata.

        After journal replay the store knows every version the previous
        incarnation journaled; the producer must continue *above* them or
        ``publish_version`` would reject the duplicate.
        """
        with self._clock_lock:
            for model_name in self.metadata.models():
                versions = self.metadata.versions(model_name)
                if versions:
                    self._versions[model_name] = max(
                        self._versions.get(model_name, 0), max(versions)
                    )

    def recover_pending(self) -> Dict[str, int]:
        """Reconcile journaled-but-not-durable checkpoints after replay.

        For every record with ``durable=False`` there are two cases:

        - the blob already sits in the PFS (the crash hit between the
          flush's put and its metadata acknowledgement): *complete* the
          acknowledgement exactly once;
        - otherwise the blob died with the process (the volatile tiers
          are built fresh; only the PFS reloads its media): *prune* the
          record via a journaled drop, so consumers can never be pointed
          at bytes that no longer exist.
        """
        completed = pruned = 0
        for model_name in self.metadata.models():
            for version in self.metadata.versions(model_name):
                rec, _ = self.metadata.record(model_name, version)
                if rec.durable:
                    continue
                if rec.path in self.cluster.pfs:
                    self._mark_durable(rec)
                    completed += 1
                else:
                    self.metadata.drop_version(model_name, version)
                    pruned += 1
        return {"completed": completed, "pruned": pruned}

    # ------------------------------------------------------------------
    # History flush (paper §4.4)
    # ------------------------------------------------------------------
    def _flush(self, blob: bytes, record: ModelRecord) -> Cost:
        """Persist one published checkpoint to the PFS and mark it
        durable; runs on the flusher worker under the retry policy."""
        self._crash("flush.start")
        cost = self.cluster.pfs.put(
            record.path,
            blob,
            virtual_bytes=record.nbytes,
            nobjects=record.ntensors,
            version=record.version,
        )
        # Kill point: the blob is durable but the record still says
        # durable=False; recovery completes the acknowledgement once.
        self._crash("flush.staged")
        current, _ = self.metadata.record(record.model_name, record.version)
        cost = cost + self._mark_durable(current)
        self.lineage.record_header(
            record.trace_ctx,
            "flush",
            sim_time=self.sim_now,
            actor="flusher",
            sim_seconds=cost.total,
        )
        return cost

    def _mark_durable(self, rec: ModelRecord) -> Cost:
        """CAS ``rec`` to durable with the PFS in its replica set."""
        return self.metadata.compare_and_swap(
            replace(
                rec,
                durable=True,
                replicas=tuple(dict.fromkeys(rec.replicas + ("pfs",))),
            )
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def drain(self, timeout: float = 60.0) -> None:
        """Wait for async saves and flushes to settle, then apply the
        retention policy (if configured) to every model's history."""
        self.engine.drain(timeout)
        # A flush that ran out of retries leaves its record non-durable
        # and is listed in ``flusher.failures``; it does not fail drain.
        self.flusher.drain(timeout, raise_on_error=False)
        if self.retention is not None:
            from repro.core.transfer.retention import collect_garbage

            for model_name in self.metadata.models():
                collect_garbage(
                    self.metadata, self.cluster.pfs, model_name, self.retention
                )

    def close(self) -> None:
        self.engine.stop()
        self.flusher.stop()

