"""A live inference server over a double-buffered model.

The server exposes the consumer side of the paper's workflow for real
(in-process) use: inference requests run an actual ``model.predict`` on
the current double-buffer primary while model updates arrive through a
:class:`~repro.core.api.ViperConsumer`.  Each served request records the
model version that produced it and, when ground truth is supplied, the
achieved loss — the live counterpart of the DES consumer's accounting.

Updates can be applied in two discovery modes:

- ``push``: a broker subscription; :meth:`poll_updates` drains it and
  applies the newest checkpoint (Viper's mode);
- ``pull``: a repository poller checks the metadata store at a fixed
  interval (the Triton/TF-Serving baseline).

A push-mode server can additionally arm a **staleness watchdog**
(``staleness_deadline``): when no update has arrived for that much
simulated time, the server performs one direct metadata poll — so a dead
producer, a crashed broker, or a dropped notification degrades to the
polling baseline instead of serving stale forever.  Every fallback is
counted (``server_stale_fallbacks_total`` and the Stats Manager's
``stale_fallbacks``).  Because the fallback resolves "latest" through
the metadata store, it can never resurrect a quarantined version — the
latest pointer always names the newest non-quarantined checkpoint.

With a :class:`~repro.rollout.policy.RolloutPolicy` armed, discovery no
longer swaps unconditionally: new versions are staged as **canaries**,
served to at most the policy's traffic fraction, scored live by the
health gate, and promoted or quarantined by the server's
:class:`~repro.rollout.controller.RolloutController` (``self.rollout``).
"""

from __future__ import annotations

import collections
import threading
import time
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (
    CircuitOpenError,
    NotificationError,
    OverloadError,
    RetriesExhausted,
    ServingError,
)
from repro.dnn.losses import Loss
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER
from repro.core.api import ViperConsumer
from repro.core.notification import is_quarantine
from repro.rollout.controller import RolloutController
from repro.rollout.policy import RolloutPolicy
from repro.serving.admission import AdmissionConfig, AdmissionController

__all__ = ["ServedRequest", "InferenceServer"]

#: Update-path failures a degraded-capable server absorbs instead of
#: propagating: an open circuit, an exhausted retry budget, a dead
#: broker subscription.  Everything else (corruption, programming
#: errors) still raises.
_DEGRADABLE = (CircuitOpenError, RetriesExhausted, NotificationError)


@dataclass(frozen=True)
class ServedRequest:
    """Accounting for one handled inference request."""

    request_id: int
    model_version: int
    loss: float            # NaN when no ground truth was provided
    sim_time: float        # simulated completion time


class InferenceServer:
    """Serve real inferences with seamless model updates.

    ``loss_fn`` (optional) scores each response against ground truth so
    cumulative inference loss can be measured live.  ``t_infer`` is the
    simulated per-request service time (paper Fig. 6 shows it constant).
    """

    def __init__(
        self,
        consumer: ViperConsumer,
        model_name: str,
        *,
        loss_fn: Optional[Loss] = None,
        t_infer: float = 0.005,
        staleness_deadline: Optional[float] = None,
        tracer=None,
        metrics=None,
        name: Optional[str] = None,
        rollout: Optional[RolloutPolicy] = None,
        max_request_log: Optional[int] = None,
        admission=None,
        degraded_ok: bool = False,
    ):
        if t_infer <= 0:
            raise ServingError("t_infer must be positive")
        if staleness_deadline is not None and staleness_deadline <= 0:
            raise ServingError("staleness_deadline must be positive")
        if max_request_log is not None and max_request_log < 1:
            raise ServingError("max_request_log must be >= 1 (or None)")
        self.consumer = consumer
        self.model_name = model_name
        self.name = name if name is not None else consumer.name
        self.loss_fn = loss_fn
        self.t_infer = t_infer
        self.staleness_deadline = staleness_deadline
        self.stale_fallbacks = 0
        self._last_update_sim = 0.0
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        # Lineage/freshness ride along from the deployment: the server is
        # where first_serve lands and where the one staleness definition
        # (behind the newest publish) is applied to live requests.
        self.lineage = consumer.viper.lineage
        self.freshness = consumer.viper.freshness
        self._first_served: set = set()
        self._m_requests = self.metrics.counter(
            "server_requests_total", model=model_name
        )
        self._m_latency = self.metrics.histogram(
            "server_request_wall_seconds", model=model_name
        )
        self._m_stale = self.metrics.counter(
            "server_stale_serves_total", model=model_name
        )
        self._m_swaps = self.metrics.counter(
            "server_updates_applied_total", model=model_name
        )
        #: Per-request log, bounded by ``max_request_log`` (None keeps
        #: everything).  The aggregates below survive eviction, so
        #: :attr:`cumulative_loss` and :meth:`requests_per_version` stay
        #: exact under sustained traffic.
        self.requests: Deque[ServedRequest] = collections.deque(
            maxlen=max_request_log
        )
        self.max_request_log = max_request_log
        self._cum_loss = 0.0
        self._scored_requests = 0
        self._per_version: Dict[int, int] = {}
        self._sim_time = 0.0
        self._lock = threading.Lock()
        self._next_id = 0
        #: Rollout controller (None = legacy unconditional-swap mode).
        self.rollout: Optional[RolloutController] = (
            RolloutController(
                consumer, model_name, rollout,
                name=self.name, metrics=self.metrics,
            )
            if rollout is not None
            else None
        )
        # Newest version known to have been published, maintained by
        # poll_updates(); a request served with an older primary is a
        # "stale serve" (updates pending but not yet swapped in).
        self._latest_known = self.consumer.current_version
        #: Admission control in front of :meth:`handle` (None = admit
        #: everything, the historical behavior).  Accepts an
        #: AdmissionConfig or a pre-built AdmissionController.
        if admission is None:
            self.admission: Optional[AdmissionController] = None
        elif isinstance(admission, AdmissionController):
            self.admission = admission
        else:
            self.admission = AdmissionController(
                admission if isinstance(admission, AdmissionConfig)
                else AdmissionConfig(),
                metrics=self.metrics,
                stats=consumer.viper.handler.stats,
                name=self.name,
            )
        #: Graceful degradation: with ``degraded_ok`` the server absorbs
        #: update-path failures (open circuit, exhausted retries, dead
        #: subscription) and keeps serving the last-known-good weights
        #: instead of raising out of :meth:`poll_updates`.
        self.degraded_ok = degraded_ok
        self.degraded = False
        self.degraded_entries = 0
        self.last_degraded_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # Model updates (the "model updating thread" of §4.3)
    # ------------------------------------------------------------------
    def poll_updates(self) -> bool:
        """Apply the newest pushed checkpoint if any; True if swapped.

        Without a subscription (or without a staleness deadline) this is
        a direct metadata poll — the pull baseline.  With both, updates
        arrive purely by push; only after ``staleness_deadline`` of
        simulated silence does the watchdog fall back to one poll.

        With a rollout policy armed the same discovery signals feed the
        canary pipeline instead: new versions stage (never swap) and the
        return value reports health-gate *promotions*.

        Every poll heartbeats the consumer's broker lease — a serving
        loop that keeps polling keeps its membership for free.  With
        ``degraded_ok`` an update-path failure (open circuit, exhausted
        retries, closed subscription) flips the server into **degraded
        mode**: it keeps serving the last-known-good weights and the
        next *successful* poll — the existing catch-up read — exits
        degraded mode cleanly.
        """
        if self.consumer._sub is not None:
            self.consumer.heartbeat(self._sim_time)
        try:
            if self.rollout is not None:
                swapped = self._poll_updates_rollout()
            else:
                swapped = self._poll_updates_plain()
        except _DEGRADABLE as exc:
            if not self.degraded_ok:
                raise
            self._enter_degraded(exc)
            return False
        if self.degraded:
            self._exit_degraded()
        return swapped

    def _poll_updates_plain(self) -> bool:
        if self.consumer._sub is None or self.staleness_deadline is None:
            result = self.consumer.refresh(self.model_name)
        else:
            result = self.consumer.refresh()
            if result is None and (
                self._sim_time - self._last_update_sim >= self.staleness_deadline
            ):
                result = self.consumer.refresh(self.model_name)
                self._record_stale_fallback()
        if result is not None:
            self._after_swap()
        self._advance_watermark()
        return result is not None

    def _enter_degraded(self, exc: BaseException) -> None:
        self.last_degraded_error = exc
        sub = self.consumer._sub
        if sub is not None and not sub.evicted:
            # The absorbed failure may have consumed the notification
            # announcing the update: flag one catch-up read so the next
            # poll re-attempts it — a no-op poll must not exit degraded
            # mode while an update is still missing.
            sub.needs_catchup = True
        if self.degraded:
            return
        self.degraded = True
        self.degraded_entries += 1
        self.freshness.record_degraded_enter(
            self.name, self.model_name, self._sim_time
        )
        self.consumer.viper.handler.stats.count("degraded_entries")
        self.metrics.counter(
            "server_degraded_entries_total", model=self.model_name
        ).inc()

    def _exit_degraded(self) -> None:
        self.degraded = False
        self.last_degraded_error = None
        self.freshness.record_degraded_exit(
            self.name, self.model_name, self._sim_time
        )

    def _record_stale_fallback(self) -> None:
        """Account one staleness-watchdog fallback poll (and re-arm)."""
        self.stale_fallbacks += 1
        self._last_update_sim = self._sim_time
        self.consumer.viper.handler.stats.count("stale_fallbacks")
        self.freshness.record_stale_fallback(self.name, self.model_name)
        self.metrics.counter(
            "server_stale_fallbacks_total", model=self.model_name
        ).inc()

    def _after_swap(self) -> None:
        """A new version went live: count it and anchor the serving
        clock to the pipeline clock, so a request served after the swap
        cannot precede the swap's sim time and lineage/freshness
        timestamps stay on one timeline."""
        self._m_swaps.inc()
        with self._lock:
            self._sim_time = max(
                self._sim_time, self.consumer.viper.handler.sim_now
            )
        self._last_update_sim = self._sim_time

    def _advance_watermark(self) -> None:
        """Track the newest published version for legacy stale-serve
        accounting.  Advances unconditionally — the watermark must not
        depend on whether a metrics registry is armed."""
        record, _ = self.consumer.viper.metadata.latest(self.model_name)
        if record is not None and record.version > self._latest_known:
            self._latest_known = record.version

    def _poll_updates_rollout(self) -> bool:
        """Rollout-mode discovery: stage canaries, execute verdicts.

        Returns True when the health gate *promoted* a candidate into
        the primary this poll (the rollout-mode meaning of "swapped").
        Quarantine notifications from peer consumers are honored before
        any staging decision, so a condemned version is dropped rather
        than re-evaluated.
        """
        ctrl = self.rollout
        sub = self.consumer._sub
        update_hint = False
        if sub is not None:
            for note in sub.drain():
                if is_quarantine(note):
                    ctrl.on_quarantine_note(note, self._sim_time)
                else:
                    update_hint = True
            if sub.needs_catchup:
                # Seq gap: one metadata catch-up read replaces the
                # pushes that never arrived (the stage below reads it).
                sub.needs_catchup = False
                update_hint = True
        staged = False
        if sub is None or update_hint:
            staged = ctrl.maybe_stage(self._sim_time)
        elif self.staleness_deadline is not None and not ctrl.active and (
            self._sim_time - self._last_update_sim >= self.staleness_deadline
        ):
            # Watchdog fallback: a silent push stream degrades to one
            # metadata poll.  Resolving "latest" through the store means
            # a quarantined version can never come back this way.
            staged = ctrl.maybe_stage(self._sim_time)
            self._record_stale_fallback()
        if staged:
            # Canary activity re-arms the watchdog: the stream is alive.
            self._last_update_sim = self._sim_time
        promoted = ctrl.tick(self._sim_time)
        if promoted:
            self._after_swap()
        self._advance_watermark()
        return promoted

    # ------------------------------------------------------------------
    # Serving (the "inference serving thread")
    # ------------------------------------------------------------------
    def advance_clock(self, now: float) -> float:
        """Advance the serving clock to ``now`` (monotone; never rewinds).

        Open-loop drivers use this to mark request *arrival* instants, so
        admission's token bucket refills on arrival time and the served
        completion times model a single-server queue.  Returns the clock
        after the advance.
        """
        with self._lock:
            self._sim_time = max(self._sim_time, float(now))
            return self._sim_time

    def handle(
        self,
        x: np.ndarray,
        y_true: Optional[np.ndarray] = None,
        *,
        deadline: Optional[float] = None,
        arrival: Optional[float] = None,
    ) -> Tuple[np.ndarray, ServedRequest]:
        """Serve one request batch with the current primary model (or,
        under an active rollout, the canary for its routed fraction).

        ``deadline`` is an absolute simulated instant the response must
        land by; with admission control armed, a request that cannot make
        it (or that exceeds the rate/concurrency envelope) is shed with a
        retryable :class:`~repro.errors.OverloadError` *before* any
        scoring work.  ``arrival`` advances the serving clock to the
        request's arrival instant first (see :meth:`advance_clock`).
        """
        if arrival is not None:
            self.advance_clock(arrival)
        admitted = False
        if self.admission is not None:
            with self._lock:
                now = self._sim_time
            # Raises OverloadError on shed; the shed is counted by the
            # controller before the request touches the model.
            self.admission.admit(
                now, deadline=deadline, service_time=self.t_infer
            )
            admitted = True
        try:
            return self._handle_admitted(x, y_true)
        finally:
            if admitted:
                self.admission.release()

    def _handle_admitted(
        self,
        x: np.ndarray,
        y_true: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, ServedRequest]:
        wall_start = time.perf_counter()
        canary = self.rollout.route() if self.rollout is not None else None
        snapshot = canary if canary is not None else self.consumer._buffer.acquire()
        with self.tracer.span(
            "server.request", track="serving", version=snapshot.version
        ):
            pred = snapshot.model.predict(x)
        loss = float("nan")
        if y_true is not None and self.loss_fn is not None:
            loss = self.loss_fn.forward(pred, y_true)
        self._m_requests.inc()
        wall = time.perf_counter() - wall_start
        self._m_latency.observe(wall)
        with self._lock:
            self._sim_time += self.t_infer
            req = ServedRequest(
                request_id=self._next_id,
                model_version=snapshot.version,
                loss=loss,
                sim_time=self._sim_time,
            )
            self._next_id += 1
            self.requests.append(req)
            if not np.isnan(loss):
                self._cum_loss += loss
                self._scored_requests += 1
            self._per_version[snapshot.version] = (
                self._per_version.get(snapshot.version, 0) + 1
            )
        if self.rollout is not None:
            # Health evidence: the gate scores the arm that served this
            # request; a canary rollback can fire right here.
            if canary is not None:
                self.rollout.observe_canary(pred, loss, wall, req.sim_time)
            else:
                self.rollout.observe_primary(loss, wall)
        # One staleness definition: behind the newest publish.  With a
        # freshness tracker armed, its predicate decides; otherwise the
        # legacy metadata-poll watermark applies.
        if self.freshness.enabled:
            stale = self.freshness.record_serve(
                self.name, self.model_name, snapshot.version, req.sim_time
            )
        else:
            stale = snapshot.version < self._latest_known
        if stale:
            self._m_stale.inc()
        if self.lineage.enabled and snapshot.version not in self._first_served:
            self._first_served.add(snapshot.version)
            self.lineage.record_once(
                self._trace_header(snapshot.version),
                "first_serve",
                sim_time=req.sim_time,
                actor=self.name,
                request_id=req.request_id,
            )
        return pred, req

    def _trace_header(self, version: int) -> str:
        """The lineage header of ``version`` (empty when unknown)."""
        if version <= 0:
            return ""
        try:
            rec, _ = self.consumer.viper.metadata.record(self.model_name, version)
        except Exception:  # noqa: BLE001 - lineage degrades, never breaks serving
            return ""
        return rec.trace_ctx

    def serve_batch(
        self,
        xs: Sequence[np.ndarray],
        ys: Optional[Sequence[np.ndarray]] = None,
        refresh_between: bool = True,
        *,
        budget: Optional[float] = None,
        arrivals: Optional[Sequence[float]] = None,
    ) -> List[ServedRequest]:
        """Serve a sequence of requests, optionally applying updates
        between requests (as the segregated update thread would).

        ``budget`` gives each request a relative deadline (arrival +
        budget, resolved against the serving clock); ``arrivals`` marks
        per-request arrival instants for open-loop replay.  Requests shed
        by admission control are skipped — the controller counts them —
        so the returned list holds only requests actually served.
        """
        served = []
        for i, x in enumerate(xs):
            if refresh_between:
                self.poll_updates()
            y = ys[i] if ys is not None else None
            arrival = float(arrivals[i]) if arrivals is not None else None
            if arrival is not None:
                self.advance_clock(arrival)
            deadline = None
            if budget is not None:
                with self._lock:
                    deadline = self._sim_time + float(budget)
            try:
                _, req = self.handle(x, y, deadline=deadline, arrival=arrival)
            except OverloadError:
                continue
            served.append(req)
        return served

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def cumulative_loss(self) -> float:
        """Sum of losses over scored requests (the live CIL).

        Maintained as a running aggregate, so it stays exact even after
        old entries fall out of a bounded request log.
        """
        with self._lock:
            return self._cum_loss

    @property
    def scored_requests(self) -> int:
        """How many served requests carried a finite loss."""
        with self._lock:
            return self._scored_requests

    def versions_served(self) -> List[int]:
        """Versions of the *retained* request window, oldest first
        (bounded by ``max_request_log``; see :meth:`requests_per_version`
        for the eviction-proof aggregate)."""
        return [r.model_version for r in self.requests]

    def requests_per_version(self) -> dict:
        """Requests served per model version, across the server's whole
        lifetime (exact past eviction)."""
        with self._lock:
            return dict(self._per_version)
