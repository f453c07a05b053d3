"""Fleet liveness: lease/heartbeat membership for the update fabric.

The paper's push path (§4.4) assumes every subscriber is alive; at fleet
scale some always aren't.  :class:`LeaseRegistry` gives the notification
broker a membership view it can act on:

- every subscriber holds a **lease** with a time-to-live;
- consumers renew it by **heartbeating** (the serving loop heartbeats on
  every update poll, so a healthy consumer renews for free);
- :meth:`LeaseRegistry.expire` — driven by the broker on publish, on the
  simulated or wall clock, whichever the deployment runs on — evicts
  members whose lease lapsed, so a dead consumer's queue is reclaimed
  instead of growing broker state forever.

Eviction is **idempotent** (expiring twice changes nothing) and never
fires before a full TTL of silence — both properties are hypothesis-
tested in ``tests/resilience/test_health_properties.py``.  An evicted
member that returns is not resurrected in place: it re-joins through
``resubscribe``, whose sequence reconciliation flags the one catch-up
metadata read that replaces everything it missed.

Every membership transition is recorded in :attr:`LeaseRegistry.events`
(grant / renew-after-expiry / expire / release, with timestamps) and can
be exported as JSONL for the CI overload-chaos artifacts.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.exporters import write_jsonl
from repro.obs.metrics import NULL_METRICS

__all__ = ["Lease", "LeaseRegistry"]


@dataclass
class Lease:
    """One member's liveness contract with the broker."""

    member: str
    ttl: float
    granted_at: float
    last_beat: float
    beats: int = 0
    expired: bool = False
    expired_at: Optional[float] = None
    #: Free-form cause recorded at eviction ("ttl", "slow_consumer", ...).
    expire_reason: str = ""
    meta: Dict[str, float] = field(default_factory=dict)

    def remaining(self, now: float) -> float:
        """Seconds of lease left at ``now`` (<= 0 once expirable)."""
        return self.last_beat + self.ttl - float(now)


class LeaseRegistry:
    """Thread-safe lease table keyed by member name.

    ``ttl`` is the default lease duration; :meth:`grant` may override it
    per member.  The registry is clock-agnostic: every mutation takes an
    explicit ``now``, so the same code runs on the simulated clock in
    tests and the wall clock in a live deployment.  A clock that jumps
    backwards can never expire a lease early — expiry compares against
    the *latest* heartbeat ever observed.
    """

    def __init__(
        self,
        ttl: float,
        *,
        metrics=None,
        stats=None,
        on_expire: Optional[Callable[[str, str], None]] = None,
    ):
        if ttl <= 0:
            raise ConfigurationError("lease ttl must be positive")
        self.ttl = float(ttl)
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.stats = stats
        self.on_expire = on_expire
        self._lock = threading.Lock()
        self._leases: Dict[str, Lease] = {}
        #: Membership transitions, oldest first (JSONL-exportable).
        self.events: List[Dict[str, object]] = []
        self.expirations = 0

    # ------------------------------------------------------------------
    def _event_locked(self, event: str, member: str, now: float, **extra) -> None:
        entry: Dict[str, object] = {"event": event, "member": member, "t": float(now)}
        entry.update(extra)
        self.events.append(entry)

    def grant(self, member: str, now: float, ttl: Optional[float] = None) -> Lease:
        """Grant (or re-grant) ``member`` a lease starting at ``now``.

        Re-granting an expired lease revives the member — the broker does
        this when an evicted consumer resubscribes.  Re-granting a live
        lease just renews it.
        """
        t = float(now)
        with self._lock:
            lease = self._leases.get(member)
            if lease is not None and not lease.expired:
                lease.last_beat = max(lease.last_beat, t)
                if ttl is not None:
                    lease.ttl = float(ttl)
                return lease
            revived = lease is not None
            lease = Lease(
                member=member,
                ttl=float(ttl) if ttl is not None else self.ttl,
                granted_at=t,
                last_beat=t,
            )
            self._leases[member] = lease
            self._event_locked(
                "regrant" if revived else "grant", member, t, ttl=lease.ttl
            )
        self.metrics.counter("viper_leases_granted_total").inc()
        return lease

    def heartbeat(self, member: str, now: float) -> bool:
        """Renew ``member``'s lease at ``now``; False when it has none.

        A heartbeat *always* renews a live lease (the property tests pin
        this): after ``heartbeat(m, t)`` no ``expire(now <= t + ttl)``
        can evict ``m``.  Heartbeats against an expired lease are
        rejected — the member must re-grant (resubscribe) so its queue
        state is rebuilt, not silently resurrected.
        """
        with self._lock:
            lease = self._leases.get(member)
            if lease is None or lease.expired:
                return False
            lease.last_beat = max(lease.last_beat, float(now))
            lease.beats += 1
        return True

    def expire(self, now: float) -> List[str]:
        """Evict every member silent for longer than its TTL at ``now``.

        Returns the members evicted *by this call* — calling again at the
        same ``now`` returns an empty list (idempotence).
        """
        t = float(now)
        evicted: List[str] = []
        callbacks: List[str] = []
        with self._lock:
            for member, lease in self._leases.items():
                if lease.expired or t - lease.last_beat <= lease.ttl:
                    continue
                lease.expired = True
                lease.expired_at = t
                lease.expire_reason = "ttl"
                self.expirations += 1
                evicted.append(member)
                self._event_locked(
                    "expire", member, t,
                    reason="ttl", silent_for=t - lease.last_beat,
                )
            callbacks = list(evicted)
        for member in evicted:
            self.metrics.counter("viper_leases_expired_total", reason="ttl").inc()
            if self.stats is not None:
                self.stats.count("leases_expired", reason="ttl")
        if self.on_expire is not None:
            for member in callbacks:
                self.on_expire(member, "ttl")
        return evicted

    def evict(self, member: str, now: float, reason: str) -> bool:
        """Force-expire one member (slow-consumer escalation); idempotent."""
        with self._lock:
            lease = self._leases.get(member)
            if lease is None or lease.expired:
                return False
            lease.expired = True
            lease.expired_at = float(now)
            lease.expire_reason = reason
            self.expirations += 1
            self._event_locked("expire", member, now, reason=reason)
        self.metrics.counter("viper_leases_expired_total", reason=reason).inc()
        if self.stats is not None:
            self.stats.count("leases_expired", reason=reason)
        if self.on_expire is not None:
            self.on_expire(member, reason)
        return True

    def release(self, member: str, now: float) -> bool:
        """Voluntary departure (clean unsubscribe); not an expiry."""
        with self._lock:
            lease = self._leases.pop(member, None)
            if lease is None:
                return False
            self._event_locked("release", member, now)
        return True

    # ------------------------------------------------------------------
    def alive(self, member: str) -> bool:
        with self._lock:
            lease = self._leases.get(member)
            return lease is not None and not lease.expired

    def lease(self, member: str) -> Optional[Lease]:
        with self._lock:
            return self._leases.get(member)

    def members(self, *, alive_only: bool = True) -> Tuple[str, ...]:
        with self._lock:
            return tuple(
                m
                for m, lease in self._leases.items()
                if not (alive_only and lease.expired)
            )

    def write_event_log(self, path) -> int:
        """Dump membership transitions as JSONL; returns the line count."""
        with self._lock:
            events = list(self.events)
        return write_jsonl(path, events)
