"""Rollback controller: candidate lifecycle between discovery and swap.

The :class:`RolloutController` sits between update discovery (the
server's ``poll_updates``) and the double-buffer swap.  Instead of the
unconditional ``consumer.refresh()`` path, a newly published version is
**staged** into the buffer's canary slot, served to a bounded fraction
of live requests, and scored by a :class:`~repro.rollout.gate.HealthGate`
until one of three things happens:

- **promote** — the gate votes healthy; after a deterministic
  per-consumer stagger delay the candidate is swapped into the primary
  (the fleet never promotes in lock-step);
- **rollback** — the gate trips a threshold; the candidate is dropped
  from the canary slot, **quarantined** in the metadata store with a
  reason code (journaled, so recovery converges on the last-known-good
  version too), the quarantine is fanned out on the notification topic
  so peer consumers drop their own canaries, and time-to-detect lands
  in metrics;
- **superseded** — a newer version appears mid-canary; the old
  candidate is dropped without prejudice and the newer one staged.

Every transition is appended to an in-memory decision log
(:meth:`RolloutController.write_decision_log` exports JSONL — the CI
chaos job uploads it as an artifact).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import IntegrityError, RetriesExhausted, ServingError
from repro.core.notification import QUARANTINE_EVENT, Notification
from repro.obs.exporters import write_jsonl
from repro.obs.metrics import NULL_METRICS
from repro.rollout.gate import GateDecision, HealthGate, RollbackReason, Verdict
from repro.rollout.policy import CanaryRouter, RolloutPolicy

__all__ = ["Candidate", "RolloutController"]

#: ``rollout_state`` gauge values (one gauge per consumer+model).
STATE_IDLE, STATE_CANARY, STATE_PROMOTING = 0, 1, 2


@dataclass
class Candidate:
    """One version under canary evaluation."""

    version: int
    staged_at: float                 # sim time of the (first) staging
    gate: HealthGate
    router: CanaryRouter
    promote_at: Optional[float] = None   # sim time the staggered swap is due
    verdict: Verdict = field(default=Verdict.PENDING)


class RolloutController:
    """Health-gated promotion / quarantine of candidate versions."""

    def __init__(
        self,
        consumer,
        model_name: str,
        policy: RolloutPolicy,
        *,
        name: Optional[str] = None,
        metrics=None,
    ):
        self.consumer = consumer
        self.viper = consumer.viper
        self.model_name = model_name
        self.policy = policy
        self.name = name if name is not None else consumer.name
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._candidate: Optional[Candidate] = None
        #: version -> integrity failures across staging attempts (each
        #: already exhausted the retry layer underneath).
        self._stage_failures: Dict[int, int] = {}
        #: version -> sim time of the first staging attempt, so
        #: time-to-detect covers candidates that never staged cleanly.
        self._first_attempt: Dict[int, float] = {}
        self.promotions = 0
        self.rollbacks = 0
        self.peer_drops = 0
        self.time_to_detect: List[float] = []
        self.decisions: List[dict] = []
        labels = dict(consumer=self.name, model=model_name)
        self._m_state = self.metrics.gauge("rollout_state", **labels)
        self._m_state.set(STATE_IDLE)
        self._m_share = self.metrics.gauge("rollout_canary_share", **labels)
        self._m_canary = self.metrics.counter(
            "rollout_canary_requests_total", **labels
        )
        self._m_promotions = self.metrics.counter(
            "rollout_promotions_total", **labels
        )
        self._m_ttd = self.metrics.histogram(
            "rollout_time_to_detect_sim_seconds", **labels
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        return self._candidate is not None

    @property
    def candidate_version(self) -> Optional[int]:
        cand = self._candidate
        return cand.version if cand is not None else None

    def _log(self, action: str, version: int, sim_time: float, **extra) -> None:
        self.decisions.append(
            {
                "action": action,
                "consumer": self.name,
                "model": self.model_name,
                "version": version,
                "sim_time": round(float(sim_time), 9),
                **extra,
            }
        )

    # ------------------------------------------------------------------
    # Discovery -> staging
    # ------------------------------------------------------------------
    def maybe_stage(self, sim_now: float) -> bool:
        """Stage the newest non-quarantined version as the candidate.

        Returns True when a new candidate was staged.  Integrity
        failures (the load's layered verification failed even after the
        retry budget) count against ``policy.max_integrity_errors``;
        crossing it quarantines the version without it ever touching a
        buffer slot.
        """
        record, _ = self.viper.metadata.latest(self.model_name)
        if record is None or record.version <= self.consumer.current_version:
            return False
        cand = self._candidate
        if cand is not None:
            if record.version <= cand.version:
                return False
            # A newer publish displaces the candidate mid-canary; the
            # displaced version is not condemned, just outdated.
            self.consumer.drop_candidate()
            self._log(
                "superseded", cand.version, sim_now,
                by=record.version, reason=RollbackReason.SUPERSEDED.value,
            )
            self._candidate = None
            self._m_state.set(STATE_IDLE)
        version = record.version
        self._first_attempt.setdefault(version, float(sim_now))
        try:
            self.consumer.stage_candidate(self.model_name, version)
        except (IntegrityError, RetriesExhausted) as exc:
            cause = exc if isinstance(exc, IntegrityError) else exc.__cause__
            if not isinstance(cause, IntegrityError):
                raise
            failures = self._stage_failures.get(version, 0) + 1
            self._stage_failures[version] = failures
            self._log(
                "stage_failed", version, sim_now,
                integrity_errors=failures, error=str(exc)[:200],
            )
            if failures > self.policy.max_integrity_errors:
                self._quarantine(
                    version, RollbackReason.INTEGRITY, sim_now,
                    detail=f"{failures} integrity failure(s) while staging",
                )
            return False
        except ServingError:
            # Raced a concurrent swap/quarantine; nothing to stage.
            return False
        self._candidate = Candidate(
            version=version,
            staged_at=self._first_attempt[version],
            gate=HealthGate(self.policy),
            router=CanaryRouter(self.policy.canary_fraction),
        )
        self._m_state.set(STATE_CANARY)
        self._log(
            "stage", version, sim_now,
            canary_fraction=self.policy.canary_fraction,
        )
        return True

    # ------------------------------------------------------------------
    # Request routing + evidence (serving thread)
    # ------------------------------------------------------------------
    def route(self):
        """Route the next request; a canary snapshot or None (primary).

        Must be called exactly once per served request while a
        candidate is active — the router's stride arithmetic is what
        enforces the hard canary share cap.
        """
        cand = self._candidate
        if cand is None:
            return None
        snapshot = self.consumer.canary_snapshot()
        if snapshot is None or snapshot.version != cand.version:
            return None
        if not cand.router.route():
            self._m_share.set(cand.router.canary_share)
            return None
        self._m_canary.inc()
        self._m_share.set(cand.router.canary_share)
        return snapshot

    def observe_primary(self, loss: float, latency: float) -> None:
        """Score one incumbent-served request (no-op when idle)."""
        cand = self._candidate
        if cand is not None:
            cand.gate.observe_primary(loss, latency)

    def observe_canary(
        self, prediction, loss: float, latency: float, sim_now: float
    ) -> None:
        """Score one canary-served request; may roll back immediately."""
        cand = self._candidate
        if cand is None:
            return
        cand.gate.observe_canary(prediction, loss, latency)
        decision = cand.gate.decision()
        if decision.verdict is Verdict.ROLLBACK:
            self.rollback(decision, sim_now)

    # ------------------------------------------------------------------
    # Verdict execution
    # ------------------------------------------------------------------
    def tick(self, sim_now: float) -> bool:
        """Evaluate the candidate; True when a promotion swap happened.

        Promotion is deferred by the policy's per-consumer stagger
        delay: the first promote verdict schedules the swap at
        ``sim_now + promote_delay(consumer)``; the swap itself executes
        on the first tick at or past that instant.
        """
        cand = self._candidate
        if cand is None:
            return False
        decision = cand.gate.decision()
        if decision.verdict is Verdict.ROLLBACK:
            self.rollback(decision, sim_now)
            return False
        if decision.verdict is not Verdict.PROMOTE:
            return False
        if cand.promote_at is None:
            cand.promote_at = sim_now + self.policy.promote_delay(self.name)
            cand.verdict = Verdict.PROMOTE
            self._m_state.set(STATE_PROMOTING)
        if sim_now < cand.promote_at:
            return False
        self.consumer.promote_candidate(self.model_name)
        self.promotions += 1
        self._m_promotions.inc()
        self.viper.handler.stats.count("canary_promotions")
        self._log(
            "promote", cand.version, sim_now,
            canary_requests=cand.router.canary_requests,
            requests=cand.router.requests,
            canary_share=round(cand.router.canary_share, 6),
            staged_at=round(cand.staged_at, 9),
            stagger_delay=round(
                cand.promote_at - (cand.staged_at if cand.promote_at else 0), 9
            ) if self.policy.stagger else 0.0,
        )
        self._forget(cand.version)
        self._candidate = None
        self._m_state.set(STATE_IDLE)
        self._m_share.set(0.0)
        return True

    def rollback(self, decision: GateDecision, sim_now: float) -> None:
        """Quarantine the active candidate per the gate's verdict."""
        cand = self._candidate
        if cand is None:
            return
        reason = decision.reason if decision.reason is not None else (
            RollbackReason.LOSS_REGRESSION
        )
        self.consumer.drop_candidate()
        self._candidate = None
        self._quarantine(
            cand.version, reason, sim_now,
            detail=decision.detail,
            canary_requests=cand.router.canary_requests,
            requests=cand.router.requests,
            canary_share=round(cand.router.canary_share, 6),
        )

    def _quarantine(
        self,
        version: int,
        reason: RollbackReason,
        sim_now: float,
        detail: str = "",
        **extra,
    ) -> None:
        viper = self.viper
        viper.metadata.quarantine_version(self.model_name, version, reason.value)
        viper.freshness.record_quarantine(self.model_name, version, sim_now)
        viper.handler.stats.count("canary_rollbacks", reason=reason.value)
        self.rollbacks += 1
        ttd = max(0.0, sim_now - self._first_attempt.get(version, sim_now))
        self.time_to_detect.append(ttd)
        self._m_ttd.observe(ttd)
        self.metrics.counter(
            "rollout_rollbacks_total",
            consumer=self.name, model=self.model_name, reason=reason.value,
        ).inc()
        self._m_state.set(STATE_IDLE)
        self._m_share.set(0.0)
        self._log(
            "rollback", version, sim_now,
            reason=reason.value, detail=detail,
            time_to_detect=round(ttd, 9), **extra,
        )
        self._forget(version)
        # Fan the quarantine out so peer consumers drop their canaries
        # and the fleet converges on the last-known-good version.
        viper.broker.publish(
            viper.topic,
            model_name=self.model_name,
            version=version,
            location="quarantined",
            now=viper.handler.sim_now,
            payload={"event": QUARANTINE_EVENT, "reason": reason.value},
        )

    def on_quarantine_note(self, note: Notification, sim_now: float) -> None:
        """A peer quarantined ``note.version``; drop our matching canary."""
        cand = self._candidate
        if (
            cand is None
            or note.model_name != self.model_name
            or note.version != cand.version
        ):
            return
        self.consumer.drop_candidate()
        self._candidate = None
        self.peer_drops += 1
        self._m_state.set(STATE_IDLE)
        self._m_share.set(0.0)
        self.metrics.counter(
            "rollout_peer_drops_total",
            consumer=self.name, model=self.model_name,
        ).inc()
        self._log(
            "peer_drop", note.version, sim_now,
            reason=RollbackReason.PEER.value,
            peer_reason=str(note.payload.get("reason", "")),
        )
        self._forget(note.version)

    def _forget(self, version: int) -> None:
        """Drop per-version staging bookkeeping once a verdict landed."""
        self._stage_failures.pop(version, None)
        self._first_attempt.pop(version, None)

    # ------------------------------------------------------------------
    # Decision log export
    # ------------------------------------------------------------------
    def write_decision_log(self, path) -> int:
        """Append-free JSONL export of every decision; returns the count."""
        return write_jsonl(path, self.decisions, sort_keys=True)
