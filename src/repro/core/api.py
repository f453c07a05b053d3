"""Viper's public API (paper Fig. 4): ``save_weights`` / ``load_weights``.

:class:`Viper` wires the whole stack together for a two-node
producer/consumer deployment: hardware profile -> cluster -> metadata DB,
notification broker, model weights handler.  Role views keep the usage
honest to the paper:

- :class:`ViperProducer` — the training side: ``save_weights`` plus a
  factory for the :class:`~repro.core.callback.CheckpointCallback`.
- :class:`ViperConsumer` — the serving side: subscribes to update
  notifications, loads new checkpoints, and swaps them into a
  double-buffered live model.

Example::

    viper = Viper()
    producer = viper.producer()
    consumer = viper.consumer(model_builder=build_tc1)

    cb = producer.checkpoint_callback("tc1", interval=50, warmup_iters=100)
    model.fit(x, y, epochs=5, batch_size=20, callbacks=[cb])

    consumer.refresh()              # pick up the newest checkpoint
    live = consumer.current_model() # serve inferences with it
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from repro.errors import (
    ConfigurationError,
    IntegrityError,
    RetriesExhausted,
    ServingError,
)
from repro.substrates.cluster.cluster import make_producer_consumer_pair
from repro.substrates.profiles import POLARIS, HardwareProfile
from repro.dnn.serialization import Serializer
from repro.core.callback import CheckpointCallback
from repro.core.metadata import MetadataStore
from repro.core.notification import NotificationBroker, Subscription
from repro.core.transfer.double_buffer import BufferSnapshot, DoubleBuffer
from repro.core.transfer.handler import LoadResult, ModelWeightsHandler, UpdateResult
from repro.core.transfer.selector import TransferSelector

__all__ = ["Viper", "ViperProducer", "ViperConsumer"]


class Viper:
    """One producer/consumer deployment of the Viper I/O framework."""

    def __init__(
        self,
        profile: HardwareProfile = POLARIS,
        *,
        serializer: Optional[Serializer] = None,
        selector: Optional[TransferSelector] = None,
        flush_history: bool = False,
        retention=None,
        topic: str = "model-updates",
        tracer=None,
        metrics=None,
        pipeline=None,
        delta=None,
        retry_policy=None,
        failover: bool = True,
        fault_plan=None,
        journal=None,
        recover: bool = False,
        crash_plan=None,
        notify_queue_max: int = 0,
        lineage=None,
        freshness=None,
        lease_ttl: Optional[float] = None,
        slow_consumer_cycles: int = 0,
        breaker=None,
    ):
        from repro.core.stats import StatsManager
        from repro.obs.freshness import NULL_FRESHNESS
        from repro.obs.lineage import NULL_LINEAGE
        from repro.obs.metrics import NULL_METRICS
        from repro.obs.tracer import NULL_TRACER

        self.profile = profile
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.lineage = lineage if lineage is not None else NULL_LINEAGE
        self.freshness = freshness if freshness is not None else NULL_FRESHNESS
        # One stats manager shared by the broker (lease evictions), the
        # breaker board (trips), and the handler (transfer accounting),
        # so fleet-health counters land in a single snapshot.
        self.stats = StatsManager(metrics=self.metrics)
        # Circuit breakers for the transfer stack's retry sites; `breaker`
        # accepts a BreakerConfig or a plain bool (True = defaults).
        self.breakers = self._breaker_board(breaker)
        self.cluster, self.producer_node, self.consumer_node = (
            make_producer_consumer_pair(profile)
        )
        self.metadata = MetadataStore()
        # Crash recovery: replay the durable journal into the fresh
        # metadata store *before* any component can mutate it, then
        # journal every subsequent mutation (write-ahead).
        if recover and journal is None:
            raise ConfigurationError("recover=True requires a journal")
        self.journal = None
        self.recovery = {"replayed_ops": 0, "completed": 0, "pruned": 0}
        replayed = 0
        if journal is not None:
            from repro.resilience.recovery import MetadataJournal

            if not isinstance(journal, MetadataJournal):
                journal = MetadataJournal(journal, metrics=self.metrics)
            self.journal = journal
            if recover:
                with self.tracer.span(
                    "recovery.replay", track="recovery", root=str(journal.root)
                ) as sp:
                    replayed = journal.replay_into(self.metadata)
                    sp.set(replayed_ops=replayed)
            self.metadata.attach_journal(journal)
        self.broker = NotificationBroker(
            metrics=self.metrics,
            queue_max=notify_queue_max,
            lease_ttl=lease_ttl,
            slow_consumer_cycles=slow_consumer_cycles,
            stats=self.stats,
        )
        self.handler = ModelWeightsHandler(
            self.cluster,
            self.producer_node,
            self.consumer_node,
            profile,
            metadata=self.metadata,
            broker=self.broker,
            serializer=serializer,
            selector=selector,
            flush_history=flush_history,
            retention=retention,
            topic=topic,
            tracer=self.tracer,
            metrics=self.metrics,
            pipeline=pipeline,
            delta=delta,
            retry_policy=retry_policy,
            failover=failover,
            lineage=self.lineage,
            freshness=self.freshness,
            stats=self.stats,
            breakers=self.breakers,
        )
        self.topic = topic
        self._consumer_seq = 0
        if self.journal is not None:
            # The PFS mirrors to durable media beside the journal; a
            # recovering deployment reloads the surviving objects first.
            self.cluster.pfs.attach_media(self.journal.root / "pfs", load=recover)
        if recover:
            # Reconcile journaled-but-not-durable checkpoints (complete
            # the flush CAS or prune), then resume version
            # numbering above what survived.
            with self.tracer.span("recovery.reconcile", track="recovery") as sp:
                counts = self.handler.recover_pending()
                self.handler.restore_version_counters()
                sp.set(**counts)
            self.recovery = {"replayed_ops": replayed, **counts}
            self.handler.stats.record_recovery(replayed)
        # An armed fault plan (chaos testing) hooks this deployment's
        # tier stores for the session; close() disarms it.
        self.fault_plan = fault_plan
        if fault_plan is not None:
            fault_plan.bind_metrics(self.metrics).arm(self.cluster)
        # An armed crash plan (the crash-restart harness) installs its
        # kill points across the handler and the tier stores.
        self.crash_plan = crash_plan
        if crash_plan is not None:
            crash_plan.arm(self)

    def _breaker_board(self, breaker):
        """Normalize the ``breaker`` knob to a BreakerBoard (or None)."""
        from repro.resilience.breaker import BreakerBoard, BreakerConfig
        from repro.resilience.faults import default_seed

        if breaker is None or breaker is False:
            return None
        return BreakerBoard(
            breaker if isinstance(breaker, BreakerConfig) else None,
            seed=default_seed(), metrics=self.metrics, stats=self.stats,
        )

    # -- paper Fig. 4 API -------------------------------------------------
    def save_weights(self, model_name: str, model_weights, **kwargs) -> UpdateResult:
        """Save the current model state (producer interface)."""
        return self.handler.save_weights(model_name, model_weights, **kwargs)

    def load_weights(self, model_name: str, version: Optional[int] = None) -> LoadResult:
        """Load an updated model (consumer interface).

        The returned ``state`` is read-only arrays over the verified
        checkpoint bytes in every configuration: writing into one raises
        ``ValueError``.  Copy a tensor (``np.array(t)``) to modify it.
        """
        return self.handler.load_weights(model_name, version)

    # -- role views --------------------------------------------------------
    def producer(self) -> "ViperProducer":
        return ViperProducer(self)

    def consumer(
        self,
        model_builder: Callable[[], object],
        name: Optional[str] = None,
    ) -> "ViperConsumer":
        if name is None:
            name = f"consumer-{self._consumer_seq}"
            self._consumer_seq += 1
        return ViperConsumer(self, model_builder, name=name)

    # -- lifecycle ----------------------------------------------------------
    def drain(self) -> None:
        self.handler.drain()

    def close(self) -> None:
        if self.fault_plan is not None:
            self.fault_plan.disarm()
        self.handler.close()
        self.broker.close()
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "Viper":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ViperProducer:
    """Training-side view: save checkpoints, build fit callbacks."""

    def __init__(self, viper: Viper):
        self.viper = viper

    def save_weights(self, model_name: str, model_weights, **kwargs) -> UpdateResult:
        return self.viper.save_weights(model_name, model_weights, **kwargs)

    def checkpoint_callback(self, model_name: str, **kwargs) -> CheckpointCallback:
        """A :class:`CheckpointCallback` bound to this deployment."""
        return CheckpointCallback(self.viper, model_name, **kwargs)

    def drain(self) -> None:
        self.viper.drain()


class ViperConsumer:
    """Serving-side view: double-buffered live model + push updates.

    ``model_builder`` constructs a fresh model instance; the consumer
    keeps two (primary serving, alternate staging) and swaps atomically
    on every update, so inference never observes a half-loaded model.
    """

    def __init__(
        self,
        viper: Viper,
        model_builder: Callable[[], object],
        name: str = "consumer-0",
    ):
        self.viper = viper
        self.name = name
        self._builder = model_builder
        self._spare = model_builder()
        self._buffer: DoubleBuffer = DoubleBuffer(
            model_builder(),
            version=0,
            metrics=viper.metrics,
            freshness=viper.freshness,
            owner=name,
        )
        self._sub: Optional[Subscription] = None
        self._lock = threading.Lock()
        self.updates_applied = 0
        self.load_seconds = 0.0
        self._last_model: Optional[str] = None
        #: Lazily-built third model replica backing the canary slot (the
        #: rollout path needs primary + spare + canary live at once).
        self._canary_model = None

    # ------------------------------------------------------------------
    def subscribe(self) -> Subscription:
        """Register for push notifications of new checkpoints.

        The subscription carries this consumer's name as its lease
        identity; on a lease-armed broker it must :meth:`heartbeat`
        within the TTL or be evicted.
        """
        if self._sub is None:
            self._sub = self.viper.broker.subscribe(
                self.viper.topic,
                member=self.name,
                now=self.viper.handler.sim_now,
            )
        return self._sub

    def heartbeat(self, now: Optional[float] = None) -> bool:
        """Renew this consumer's broker lease (serving loops call this on
        every update poll).  False when leases are off or already lapsed —
        a lapsed lease means the broker evicted us and the next
        :meth:`resubscribe` owes a catch-up read."""
        if now is None:
            now = self.viper.handler.sim_now
        return self.viper.broker.heartbeat(self.name, now)

    @property
    def evicted(self) -> bool:
        """True when the broker evicted this consumer's subscription."""
        return self._sub is not None and self._sub.evicted

    @property
    def last_seq(self) -> int:
        """Highest notification sequence number consumed so far."""
        return self._sub.last_seq if self._sub is not None else 0

    def resubscribe(self, since: Optional[int] = None) -> Subscription:
        """Re-attach to the broker after a restart, with gap detection.

        ``since`` defaults to the last sequence number this consumer
        consumed (e.g. carried over from a previous incarnation).  A
        sequence mismatch flags the subscription for one metadata
        catch-up read, which the next :meth:`refresh` performs.
        """
        if since is None:
            since = self.last_seq
        old = self._sub
        self._sub = self.viper.broker.resubscribe(
            self.viper.topic,
            since,
            member=self.name,
            now=self.viper.handler.sim_now,
        )
        if old is not None and not old.evicted:
            # An evicted subscription is already detached and closed;
            # unsubscribing it would release the lease the resubscribe
            # just re-granted.
            self.viper.broker.unsubscribe(old)
        if self._sub.needs_catchup:
            self.viper.handler.stats.record_notification_gap()
        return self._sub

    def current_model(self):
        """The live model for serving (never torn, possibly stale)."""
        return self._buffer.acquire().model

    @property
    def current_version(self) -> int:
        return self._buffer.version

    # ------------------------------------------------------------------
    def _load_checked(
        self,
        op: str,
        model_name: str,
        version: Optional[int],
        place: Callable[[LoadResult], str],
    ) -> LoadResult:
        """Load a verified, servable checkpoint and hand it to ``place``
        (the ``consumer.<op>`` span covers both).

        A corrupt checkpoint never reaches a buffer slot: the rejection
        is counted and the error re-raised, so the live model keeps
        serving.  A quarantined version is refused even when a caller
        names it explicitly (``metadata.latest`` already skips it).
        ``place`` puts the state into its slot and returns the lineage
        hop that follows ``load``.
        """
        with self._lock, self.viper.tracer.span(
            f"consumer.{op}", track="consumer", model=model_name
        ) as sp:
            try:
                result = self.viper.load_weights(model_name, version)
            except (IntegrityError, RetriesExhausted) as exc:
                cause = exc if isinstance(exc, IntegrityError) else exc.__cause__
                if isinstance(cause, IntegrityError):
                    self._buffer.record_rejection()
                    self.viper.handler.stats.record_swap_rejected()
                    sp.set(outcome="swap_rejected")
                raise
            if result.record.quarantined:
                self.viper.freshness.record_stale_rejection(self.name, model_name)
                raise ServingError(
                    f"version {result.version} of {model_name!r} is "
                    f"quarantined ({result.record.quarantine_reason})"
                )
            hop = place(result)
            self.load_seconds += result.cost.total
            self._last_model = model_name
            # Lifecycle: the load and the placement land at the handler's
            # simulated "now" (already advanced by the load).
            sim_now = self.viper.handler.sim_now
            header = result.record.trace_ctx
            self.viper.lineage.record_header(
                header, "load", sim_time=sim_now, actor=self.name,
                sim_seconds=result.cost.total, location=result.location,
            )
            self.viper.lineage.record_header(
                header, hop, sim_time=sim_now, actor=self.name,
                location=result.location,
            )
            sp.set(version=result.version, location=result.location)
            return result

    def _place(self, model, result: LoadResult) -> None:
        """Load a verified state into a (non-serving) model replica.

        The state is read-only views over the verified blob (or the delta
        reconstruction's segments), and the replica adopts every aligned
        view as it is (``copy=False``): no byte is copied between the
        verified blob and the served model.  A tensor at an unaligned
        offset is copied once into the replica's own aligned array, so
        no predict reads unaligned weights.
        """
        model.load_state_dict(result.state, copy=False)

    def apply_update(self, model_name: str, version: Optional[int] = None) -> LoadResult:
        """Load a checkpoint and atomically swap it into serving."""

        def swap(result: LoadResult) -> str:
            if result.version <= self._buffer.version:
                self.viper.freshness.record_stale_rejection(self.name, model_name)
                raise ServingError(
                    f"update {result.version} is not newer than live "
                    f"{self._buffer.version}"
                )
            # Stage into the spare replica, then swap; the displaced
            # primary becomes the next spare (classic double buffering).
            self._place(self._spare, result)
            displaced = self._buffer.acquire().model
            self._buffer.update(self._spare, result.version)
            self._spare = displaced
            self.updates_applied += 1
            self.viper.freshness.record_swap(
                self.name, model_name, result.version, self.viper.handler.sim_now
            )
            return "swap"

        return self._load_checked("apply_update", model_name, version, swap)

    # ------------------------------------------------------------------
    # Canary lifecycle (driven by the rollout controller)
    # ------------------------------------------------------------------
    def stage_candidate(
        self, model_name: str, version: Optional[int] = None
    ) -> LoadResult:
        """Load a checkpoint into the canary slot without touching the
        primary.  The candidate serves only the traffic the rollout
        controller routes to it until a promote/rollback verdict lands.

        Rejects quarantined versions outright; integrity failures follow
        the same swap-rejection accounting as :meth:`apply_update`.
        """

        def stage(result: LoadResult) -> str:
            if self._canary_model is None:
                self._canary_model = self._builder()
            self._place(self._canary_model, result)
            self._buffer.stage_canary(self._canary_model, result.version)
            return "canary"

        return self._load_checked("stage_candidate", model_name, version, stage)

    def canary_snapshot(self) -> Optional[BufferSnapshot]:
        """The staged candidate (model + version), or None when idle."""
        return self._buffer.acquire_canary()

    @property
    def candidate_version(self) -> Optional[int]:
        return self._buffer.canary_version

    def promote_candidate(self, model_name: str) -> BufferSnapshot:
        """Atomically swap the canary into the primary (health-gate
        verdict: promote).  The displaced primary's model object becomes
        the next canary replica."""
        with self._lock:
            staged = self._buffer.acquire_canary()
            if staged is None:
                raise ServingError("promote_candidate() with no canary staged")
            displaced = self._buffer.promote_canary()
            self._canary_model = displaced.model
            self.updates_applied += 1
            self._last_model = model_name
            sim_now = self.viper.handler.sim_now
            self.viper.freshness.record_swap(
                self.name, model_name, staged.version, sim_now
            )
            try:
                record, _cost = self.viper.metadata.record(
                    model_name, staged.version
                )
                header = record.trace_ctx
            except Exception:
                header = ""
            self.viper.lineage.record_header(
                header, "swap", sim_time=sim_now, actor=self.name,
            )
            return staged

    def drop_candidate(self) -> Optional[int]:
        """Discard the canary (rollback or supersede); returns its
        version, or None when no candidate was staged."""
        with self._lock:
            return self._buffer.drop_canary()

    def refresh(self, model_name: Optional[str] = None) -> Optional[LoadResult]:
        """Pick up the newest checkpoint if it is newer than the live one.

        With a subscription active, drains queued notifications first
        (keeping only the newest, as Viper's memory channels hold only
        the latest model).  Returns None when already current.
        """
        if self._sub is not None and self._sub.evicted:
            # The broker evicted us (lease lapse or slow-consumer); the
            # resubscribe reconciles sequence numbers, so the catch-up
            # read below replaces everything the eviction reclaimed.
            self.resubscribe()
        if model_name is None:
            notes = self._sub.drain() if self._sub is not None else []
            catchup = self._sub is not None and self._sub.needs_catchup
            if notes:
                model_name = notes[-1].model_name
                self._last_model = model_name
            elif catchup and self._last_model is not None:
                # Gap detected but nothing queued: one metadata catch-up
                # read replaces the pushes that never arrived.
                model_name = self._last_model
            else:
                return None
            if catchup:
                self._sub.needs_catchup = False
        record, _cost = self.viper.metadata.latest(model_name)
        if record is None or record.version <= self._buffer.version:
            return None
        return self.apply_update(model_name)
