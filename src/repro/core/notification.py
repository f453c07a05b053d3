"""Publish-subscribe notification module.

Instead of the fixed-interval polling that TensorFlow-Serving and Triton
use to watch a model repository (minimum ~1 ms poll interval, plus the load
polling puts on the storage system), Viper pushes an update message to
subscribed consumers the moment a new checkpoint is published (paper §4.4,
"less than 1 ms notification latency").

:class:`NotificationBroker` reproduces the Redis pub/sub semantics
in-process: topics, fan-out to all current subscribers, per-subscriber
FIFO queues, and fire-and-forget publishes.  Delivery latency is charged
as simulated time on each message (`PUSH_LATENCY`), so the workflow layer
can compare push-based discovery against polling baselines quantitatively.

Exactly-once discovery additions (crash recovery):

- every publish carries a **per-topic monotonic sequence number**, and the
  broker retains the last notification per topic;
- subscriber queues may be **bounded** (``queue_max``): on overflow the
  oldest message is coalesced away — Viper consumers only ever want the
  latest model, so dropping stale versions loses nothing but is *counted*;
- a consumer that restarts calls :meth:`NotificationBroker.resubscribe`
  with the last sequence number it consumed.  A mismatch against the
  topic's current sequence (missed publishes, or a broker restart that
  reset the counter) flags the new subscription ``needs_catchup`` so the
  consumer performs one metadata catch-up read instead of trusting the
  push stream; the retained notification is re-delivered so the happy
  path converges without any polling.
"""

from __future__ import annotations

import collections
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import NotificationError
from repro.obs.metrics import NULL_METRICS
from repro.resilience.health import LeaseRegistry

__all__ = [
    "Notification",
    "Subscription",
    "NotificationBroker",
    "PUSH_LATENCY",
    "QUARANTINE_EVENT",
    "is_quarantine",
]

#: Simulated publish->deliver latency (paper: "less than 1 ms").
PUSH_LATENCY = 0.0005

#: ``payload["event"]`` marker on a quarantine fan-out: the named version
#: was condemned by a rollout controller and peers must drop any canary
#: they hold for it (``payload["reason"]`` carries the reason code).
#: Ordinary update notifications carry no ``event`` key.
QUARANTINE_EVENT = "quarantine"


def is_quarantine(note: "Notification") -> bool:
    """True when ``note`` announces a quarantine, not a new version."""
    return note.payload.get("event") == QUARANTINE_EVENT


@dataclass(frozen=True)
class Notification:
    """One update message: which model, which version, where it lives."""

    topic: str
    model_name: str
    version: int
    location: str
    published_at: float   # simulated publish timestamp
    deliver_at: float     # published_at + PUSH_LATENCY
    payload: Dict[str, Any] = field(default_factory=dict)
    #: Per-topic monotonic sequence number (1-based; 0 = unsequenced,
    #: for notifications constructed outside a broker).
    seq: int = 0
    #: Lineage trace header carried from the publishing handler (see
    #: :meth:`repro.obs.lineage.TraceContext.to_header`); empty when the
    #: publisher had no lineage armed.
    trace_ctx: str = ""


class Subscription:
    """A consumer's handle on a topic: a FIFO of notifications.

    Supports both blocking :meth:`get` (live mode — the consumer's update
    thread parks here) and non-blocking :meth:`poll` (DES mode).
    An optional callback fires synchronously on publish for push-driven
    consumers.

    With ``maxlen > 0`` the queue is bounded: a push that would overflow
    drops the oldest queued *ordinary* message instead (counted in
    :attr:`coalesced`).  Quarantine events are never the dropped
    message — a full queue must not silently discard a peer-rollback
    order — so when everything queued is a quarantine event the queue
    temporarily exceeds ``maxlen`` (bounded by the number of condemned
    versions, which retention keeps small).  Consuming a notification
    whose ``seq`` is not the successor of the last consumed one records
    a **gap** and sets :attr:`needs_catchup`, telling the consumer its
    view of the topic is no longer contiguous and one metadata catch-up
    read is due.
    """

    def __init__(
        self,
        topic: str,
        callback: Optional[Callable[[Notification], None]] = None,
        metrics=None,
        maxlen: int = 0,
        member: str = "",
    ):
        self.topic = topic
        self.callback = callback
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.maxlen = int(maxlen)
        #: Lease identity when the broker runs a membership registry
        #: (empty = anonymous, never lease-evicted).
        self.member = member
        self._cond = threading.Condition()
        # (notification, wall-clock push time) pairs, FIFO, so get/poll
        # can report the real publish->consume delivery delay.
        self._items: Deque[Tuple[Notification, float]] = collections.deque()
        self._closed = False
        self.delivered = 0
        self.coalesced = 0
        self.gaps = 0
        #: Highest sequence number consumed (or reconciled on resubscribe).
        self.last_seq = 0
        self.needs_catchup = False
        #: Set when the broker evicted this subscription (lease expiry or
        #: slow-consumer escalation) and reclaimed its queue; the owning
        #: consumer must ``resubscribe`` and catch up.
        self.evicted = False
        self.evict_reason = ""
        #: Consecutive pushes observed with the queue at its high
        #: watermark — the broker's slow-consumer signal.
        self.hot_pushes = 0

    @property
    def pending(self) -> int:
        """Messages queued but not yet consumed."""
        with self._cond:
            return len(self._items)

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def _push(self, note: Notification) -> None:
        with self._cond:
            if self._closed:
                return
            if self.maxlen > 0 and len(self._items) >= self.maxlen:
                # Bounded queue: coalesce toward the newest messages.  A
                # Viper consumer only ever loads the latest model, so the
                # dropped (older) ordinary notification carries no
                # information the surviving ones don't — but the drop
                # creates a seq gap the consumer will observe and count.
                # Quarantine orders are exempt: dropping one would lose a
                # peer rollback, so the oldest *ordinary* message goes.
                for i, (queued, _pushed) in enumerate(self._items):
                    if not is_quarantine(queued):
                        del self._items[i]
                        self.coalesced += 1
                        self.metrics.counter(
                            "notifications_coalesced_total", topic=self.topic
                        ).inc()
                        break
            if self.maxlen > 0 and len(self._items) + 1 >= self.maxlen:
                # Queue sits at (or past) its high watermark after this
                # push: one more tick toward slow-consumer escalation.
                self.hot_pushes += 1
            else:
                self.hot_pushes = 0
            self._items.append((note, time.perf_counter()))
            self.delivered += 1
            self._cond.notify_all()
        if self.callback is not None:
            self.callback(note)

    def _observe_delivery(self, note: Notification, pushed_wall: float) -> None:
        self.metrics.histogram(
            "notification_delivery_wall_seconds", topic=self.topic
        ).observe(time.perf_counter() - pushed_wall)
        self.metrics.histogram(
            "notification_delivery_sim_seconds", topic=self.topic
        ).observe(note.deliver_at - note.published_at)
        self.metrics.counter(
            "notifications_consumed_total", topic=self.topic
        ).inc()
        if note.seq:
            if self.last_seq and note.seq > self.last_seq + 1:
                self.gaps += 1
                self.needs_catchup = True
                self.metrics.counter(
                    "notification_gaps_total", topic=self.topic
                ).inc()
            if note.seq > self.last_seq:
                self.last_seq = note.seq

    def get(self, timeout: Optional[float] = None) -> Notification:
        """Block until the next notification arrives."""
        with self._cond:
            if not self._items:
                if self._closed:
                    raise NotificationError(
                        f"subscription to {self.topic!r} is closed"
                    )
                self._cond.wait_for(
                    lambda: self._items or self._closed, timeout
                )
            if not self._items:
                if self._closed:
                    raise NotificationError(
                        f"subscription to {self.topic!r} closed"
                    )
                raise NotificationError(
                    f"no notification on {self.topic!r} within {timeout}s"
                )
            note, pushed_wall = self._items.popleft()
        self._observe_delivery(note, pushed_wall)
        return note

    def poll(self) -> Optional[Notification]:
        """Non-blocking fetch; None when the queue is empty."""
        with self._cond:
            if not self._items:
                return None
            note, pushed_wall = self._items.popleft()
        self._observe_delivery(note, pushed_wall)
        return note

    def drain(self) -> List[Notification]:
        """Fetch everything currently queued (newest model wins logic is
        the caller's: Viper consumers typically keep only the last one)."""
        out: List[Notification] = []
        while True:
            note = self.poll()
            if note is None:
                return out
            out.append(note)

    def evict(self, reason: str) -> int:
        """Broker-side eviction: reclaim the queue, mark, and close.

        Returns the number of reclaimed (still-queued) messages.  The
        owning consumer observes :attr:`evicted` on its next poll and
        re-joins through ``resubscribe`` — which flags the catch-up read
        that replaces everything reclaimed here.
        """
        with self._cond:
            reclaimed = len(self._items)
            self._items.clear()
            self.evicted = True
            self.evict_reason = reason
            self.needs_catchup = True
            self._closed = True
            self._cond.notify_all()
        return reclaimed

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()


class NotificationBroker:
    """Topic-based fan-out broker (the Redis pub/sub stand-in).

    With ``lease_ttl`` set the broker runs a
    :class:`~repro.resilience.health.LeaseRegistry`: each named
    subscriber holds a lease, heartbeats renew it (consumers heartbeat
    through :meth:`heartbeat` on every update poll), and every publish
    sweeps the table — members silent past the TTL are **evicted**:
    their queues reclaimed, their subscriptions closed and flagged for a
    ``resubscribe`` catch-up on return.  So one dead consumer bounds the
    broker state it can strand at one queue, for one TTL.

    ``slow_consumer_cycles`` escalates the bounded-queue coalescing: a
    subscriber whose queue sits at its high watermark for that many
    consecutive pushes is evicted like a dead one (reason
    ``"slow_consumer"``) — it was consuming broker CPU and memory on
    every publish while falling ever further behind.
    """

    def __init__(
        self,
        push_latency: float = PUSH_LATENCY,
        *,
        metrics=None,
        queue_max: int = 0,
        lease_ttl: Optional[float] = None,
        slow_consumer_cycles: int = 0,
        stats=None,
    ):
        if push_latency < 0:
            raise NotificationError("push latency must be non-negative")
        if queue_max < 0:
            raise NotificationError("queue_max must be non-negative")
        if slow_consumer_cycles < 0:
            raise NotificationError("slow_consumer_cycles must be non-negative")
        if slow_consumer_cycles and not queue_max:
            raise NotificationError(
                "slow_consumer_cycles requires a bounded queue (queue_max > 0)"
            )
        self.push_latency = push_latency
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.stats = stats
        self.queue_max = int(queue_max)
        self.slow_consumer_cycles = int(slow_consumer_cycles)
        self._lock = threading.RLock()
        self._subs: Dict[str, List[Subscription]] = {}
        self._seqs: Dict[str, int] = {}
        self._retained: Dict[str, Notification] = {}
        self.published = 0
        self.evictions = 0
        self.reclaimed_messages = 0
        self.health = None
        if lease_ttl is not None:
            self.health = LeaseRegistry(
                lease_ttl, metrics=self.metrics, stats=stats
            )

    def subscribe(
        self,
        topic: str,
        callback: Optional[Callable[[Notification], None]] = None,
        *,
        member: str = "",
        now: float = 0.0,
    ) -> Subscription:
        sub = Subscription(
            topic, callback, metrics=self.metrics, maxlen=self.queue_max,
            member=member,
        )
        with self._lock:
            self._subs.setdefault(topic, []).append(sub)
            sub.last_seq = self._seqs.get(topic, 0)
        if self.health is not None and member:
            self.health.grant(member, now)
        return sub

    def resubscribe(
        self,
        topic: str,
        since: int,
        callback: Optional[Callable[[Notification], None]] = None,
        *,
        member: str = "",
        now: float = 0.0,
    ) -> Subscription:
        """Re-attach after a restart, reconciling sequence numbers.

        ``since`` is the last sequence number the consumer consumed in
        its previous incarnation.  If the topic's current sequence
        differs — publishes happened while the consumer was dead, *or*
        the broker itself restarted and its counter regressed — the new
        subscription is flagged ``needs_catchup`` (one metadata read is
        required) and the gap is counted.  The retained notification, if
        newer than ``since``, is re-delivered so a live broker's latest
        model reaches the consumer without any polling.
        """
        sub = Subscription(
            topic, callback, metrics=self.metrics, maxlen=self.queue_max,
            member=member,
        )
        with self._lock:
            current = self._seqs.get(topic, 0)
            retained = self._retained.get(topic)
            self._subs.setdefault(topic, []).append(sub)
        if current != int(since):
            sub.gaps += 1
            sub.needs_catchup = True
            self.metrics.counter("notification_gaps_total", topic=topic).inc()
        sub.last_seq = min(int(since), current)
        if retained is not None and retained.seq > sub.last_seq:
            sub._push(retained)
        if self.health is not None and member:
            # Re-granting revives an evicted member; the seq reconciliation
            # above already decided whether it owes a catch-up read.
            self.health.grant(member, now)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        with self._lock:
            subs = self._subs.get(sub.topic, [])
            if sub in subs:
                subs.remove(sub)
        if self.health is not None and sub.member:
            self.health.release(sub.member, 0.0)
        sub.close()

    # -- liveness ------------------------------------------------------
    def heartbeat(self, member: str, now: float) -> bool:
        """Renew ``member``'s lease; False when leases are off or lapsed."""
        if self.health is None or not member:
            return False
        return self.health.heartbeat(member, now)

    def expire_leases(self, now: float) -> List[str]:
        """Sweep the lease table at ``now`` and evict lapsed members.

        Eviction reclaims the member's queued notifications (broker
        memory), closes its subscriptions, and flags them for catch-up.
        Returns the members evicted by this sweep (idempotent — a second
        sweep at the same ``now`` returns nothing).
        """
        if self.health is None:
            return []
        lapsed = self.health.expire(now)
        for member in lapsed:
            self._evict_member(member, "ttl")
        return lapsed

    def _evict_member(self, member: str, reason: str) -> None:
        with self._lock:
            doomed = [
                sub
                for subs in self._subs.values()
                for sub in subs
                if sub.member == member
            ]
            for subs in self._subs.values():
                subs[:] = [s for s in subs if s.member != member]
        for sub in doomed:
            self.reclaimed_messages += sub.evict(reason)
            self.evictions += 1
            self.metrics.counter(
                "notifications_evicted_total", reason=reason
            ).inc()

    def current_seq(self, topic: str) -> int:
        """The topic's latest assigned sequence number (0 = never published)."""
        with self._lock:
            return self._seqs.get(topic, 0)

    def retained(self, topic: str) -> Optional[Notification]:
        """The last notification published on ``topic`` (None if none)."""
        with self._lock:
            return self._retained.get(topic)

    def publish(
        self,
        topic: str,
        *,
        model_name: str,
        version: int,
        location: str,
        now: float,
        payload: Optional[Dict[str, Any]] = None,
        trace_ctx: str = "",
    ) -> Notification:
        """Fan a notification out to every subscriber of ``topic``.

        Returns the notification (with its simulated delivery timestamp)
        even when there are no subscribers — publishes are fire-and-forget,
        matching Redis semantics.
        """
        with self._lock:
            seq = self._seqs.get(topic, 0) + 1
            self._seqs[topic] = seq
            note = Notification(
                topic=topic,
                model_name=model_name,
                version=version,
                location=location,
                published_at=now,
                deliver_at=now + self.push_latency,
                payload=dict(payload or {}),
                seq=seq,
                trace_ctx=trace_ctx,
            )
            self._retained[topic] = note
            subs = list(self._subs.get(topic, ()))
            self.published += 1
        self.metrics.counter("notifications_published_total", topic=topic).inc()
        slow: List[Subscription] = []
        for sub in subs:
            sub._push(note)
            if (
                self.slow_consumer_cycles
                and sub.member
                and self.health is not None
                and sub.hot_pushes >= self.slow_consumer_cycles
            ):
                slow.append(sub)
        for sub in slow:
            # Coalescing wasn't enough: the queue has sat at its high
            # watermark for `slow_consumer_cycles` straight publishes.
            # Escalate to eviction — the member rejoins via resubscribe
            # with one catch-up read instead of draining a stale backlog.
            if self.health.evict(sub.member, now, "slow_consumer"):
                self._evict_member(sub.member, "slow_consumer")
        # Publish doubles as the liveness sweep: dead subscribers are the
        # ones that would otherwise accumulate queue memory right now.
        self.expire_leases(now)
        return note

    def subscriber_count(self, topic: str) -> int:
        with self._lock:
            return len(self._subs.get(topic, ()))

    def pending_total(self) -> int:
        """Notifications queued across every live subscription.

        This is the broker's fan-out memory; the overload chaos harness
        asserts it stays bounded by ``queue_max * live subscribers`` even
        with dead and stalled consumers in the fleet.
        """
        with self._lock:
            subs = [s for lst in self._subs.values() for s in lst]
        return sum(s.pending for s in subs)

    def close(self) -> None:
        with self._lock:
            all_subs = [s for subs in self._subs.values() for s in subs]
            self._subs.clear()
        for sub in all_subs:
            sub.close()
