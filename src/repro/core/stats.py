"""Stats Manager: load-source accounting (paper Fig. 3, optional).

The architecture figure lists an optional *Stats Manager* holding
"cached models on each producer ... used when selecting where to load
the model".  :class:`StatsManager` implements that role for the Model
Weights Handler's location-aware load path: it records, per location,
how many loads were served, the simulated bytes and time spent, and how
often the preferred (cheapest) replica was missing so the load fell back
to a slower tier.

When constructed with a :class:`~repro.obs.metrics.MetricsRegistry`,
every counter is mirrored into the registry (``viper_loads_total``,
``viper_load_bytes_total``, ``viper_load_seconds`` histogram,
``viper_load_fallbacks_total``, ``viper_load_misses_total``) so
location-aware load accounting shows up in Prometheus/JSONL exports,
not only in the ad-hoc :meth:`summary` string.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

__all__ = ["LocationStats", "StatsSnapshot", "StatsManager", "LOCATION_RANK"]

#: Cheapest-first order of checkpoint locations (the load path prefers
#: the fastest tier that still holds the replica).
LOCATION_RANK: Dict[str, int] = {"gpu": 0, "host_dram": 1, "pfs": 2}


@dataclass
class LocationStats:
    """Counters for one location."""

    loads: int = 0
    bytes_loaded: int = 0
    seconds: float = 0.0


@dataclass(frozen=True)
class StatsSnapshot:
    """Consistent point-in-time copy of every StatsManager counter.

    Indexing by location (``snap["gpu"]``) keeps the historical
    dict-of-:class:`LocationStats` shape working.
    """

    locations: Dict[str, LocationStats]
    fallbacks: int
    misses: int
    retries: int = 0      # transfer attempts abandoned and re-tried
    failovers: int = 0    # strategy demotions down the GPU->HOST->PFS chain
    corruptions: int = 0  # checksum mismatches caught before deserialization
    recoveries: int = 0         # crash-recovery replays completed
    replayed_ops: int = 0       # journal operations applied across recoveries
    notification_gaps: int = 0  # sequence gaps observed by consumers
    stale_fallbacks: int = 0    # staleness-watchdog polls after silent pushes
    swaps_rejected: int = 0     # corrupt loads that never reached the buffer
    bytes_total: int = 0             # full bytes the saves represented
    bytes_on_wire: int = 0           # bytes that actually moved
    bytes_saved_dedup: int = 0       # satisfied by reuse ops against a base
    delta_chunks_total: int = 0      # chunks considered by delta encodes
    delta_chunks_reused: int = 0     # chunks served from the held base
    delta_hits: int = 0              # saves that shipped a delta frame
    delta_fallbacks: int = 0         # delta path degraded to monolithic
    canary_promotions: int = 0       # candidates promoted by the health gate
    canary_rollbacks: int = 0        # candidates quarantined by the gate
    requests_shed: int = 0           # requests refused by admission control
    leases_expired: int = 0          # subscribers evicted by the registry
    breaker_trips: int = 0           # circuit breakers tripped open
    degraded_entries: int = 0        # servers that entered degraded mode

    @property
    def dedup_hit_ratio(self) -> float:
        """Fraction of delta-considered chunks served from the base."""
        if self.delta_chunks_total == 0:
            return 0.0
        return self.delta_chunks_reused / self.delta_chunks_total

    def __getitem__(self, location: str) -> LocationStats:
        return self.locations[location]

    def __contains__(self, location: str) -> bool:
        return location in self.locations

    def __iter__(self) -> Iterator[str]:
        return iter(self.locations)


class StatsManager:
    """Thread-safe load-source counters."""

    def __init__(self, metrics=None):
        from repro.obs.metrics import NULL_METRICS

        self._lock = threading.Lock()
        self._per_location: Dict[str, LocationStats] = {}
        self.fallbacks = 0   # preferred replica missing, used a slower one
        self.misses = 0      # no replica present anywhere
        self.retries = 0     # see StatsSnapshot.retries
        self.failovers = 0   # see StatsSnapshot.failovers
        self.corruptions = 0  # see StatsSnapshot.corruptions
        self.recoveries = 0         # see StatsSnapshot.recoveries
        self.replayed_ops = 0       # see StatsSnapshot.replayed_ops
        self.notification_gaps = 0  # see StatsSnapshot.notification_gaps
        self.stale_fallbacks = 0    # see StatsSnapshot.stale_fallbacks
        self.swaps_rejected = 0     # see StatsSnapshot.swaps_rejected
        self.bytes_total = 0             # see StatsSnapshot.bytes_total
        self.bytes_on_wire = 0           # see StatsSnapshot.bytes_on_wire
        self.bytes_saved_dedup = 0       # see StatsSnapshot.bytes_saved_dedup
        self.delta_chunks_total = 0
        self.delta_chunks_reused = 0
        self.delta_hits = 0
        self.delta_fallbacks = 0
        self.canary_promotions = 0   # see StatsSnapshot.canary_promotions
        self.canary_rollbacks = 0    # see StatsSnapshot.canary_rollbacks
        self.requests_shed = 0       # see StatsSnapshot.requests_shed
        self.leases_expired = 0      # see StatsSnapshot.leases_expired
        self.breaker_trips = 0       # see StatsSnapshot.breaker_trips
        self.degraded_entries = 0    # see StatsSnapshot.degraded_entries
        self.metrics = metrics if metrics is not None else NULL_METRICS

    def rank(self, location: str) -> int:
        return LOCATION_RANK.get(location, len(LOCATION_RANK))

    def order(self, replicas) -> Tuple[str, ...]:
        """Replicas sorted cheapest-first."""
        return tuple(sorted(replicas, key=self.rank))

    # ------------------------------------------------------------------
    def record_load(
        self,
        location: str,
        nbytes: int,
        seconds: float,
        fallback: bool = False,
    ) -> None:
        with self._lock:
            stats = self._per_location.setdefault(location, LocationStats())
            stats.loads += 1
            stats.bytes_loaded += int(nbytes)
            stats.seconds += float(seconds)
            if fallback:
                self.fallbacks += 1
        self.metrics.counter("viper_loads_total", location=location).inc()
        self.metrics.counter("viper_load_bytes_total", location=location).inc(int(nbytes))
        self.metrics.histogram("viper_load_seconds", location=location).observe(float(seconds))
        if fallback:
            self.metrics.counter("viper_load_fallbacks_total").inc()

    def record_miss(self) -> None:
        with self._lock:
            self.misses += 1
        self.metrics.counter("viper_load_misses_total").inc()

    def record_retry(self, site: str = "") -> None:
        """One transfer attempt failed and was retried at ``site``."""
        with self._lock:
            self.retries += 1
        self.metrics.counter("viper_retries_total", site=site).inc()

    def record_failover(self, src: str = "", dst: str = "") -> None:
        """The strategy chain demoted ``src`` -> ``dst`` after exhaustion."""
        with self._lock:
            self.failovers += 1
        self.metrics.counter("viper_failovers_total", src=src, dst=dst).inc()

    def record_corruption(self, location: str = "") -> None:
        """A checksum mismatch was caught loading from ``location``."""
        with self._lock:
            self.corruptions += 1
        self.metrics.counter("viper_corruptions_total", location=location).inc()

    def record_recovery(self, replayed_ops: int = 0) -> None:
        """One crash-recovery replay finished, applying ``replayed_ops``."""
        with self._lock:
            self.recoveries += 1
            self.replayed_ops += int(replayed_ops)
        self.metrics.counter("viper_recoveries_total").inc()
        self.metrics.counter("viper_replayed_ops_total").inc(int(replayed_ops))

    def record_notification_gap(self) -> None:
        """A consumer observed a non-contiguous notification sequence."""
        with self._lock:
            self.notification_gaps += 1
        self.metrics.counter("viper_notification_gaps_total").inc()

    def record_stale_fallback(self) -> None:
        """The staleness watchdog fell back to a metadata poll."""
        with self._lock:
            self.stale_fallbacks += 1
        self.metrics.counter("viper_stale_fallbacks_total").inc()

    def record_swap_rejected(self) -> None:
        """A corrupt load was rejected before touching the live model."""
        with self._lock:
            self.swaps_rejected += 1
        self.metrics.counter("viper_swaps_rejected_total").inc()

    def record_promotion(self) -> None:
        """A canary candidate passed its health gate and was swapped in."""
        with self._lock:
            self.canary_promotions += 1
        self.metrics.counter("viper_promotions_total").inc()

    def record_rollback(self, reason: str = "") -> None:
        """A canary candidate was quarantined with ``reason``."""
        with self._lock:
            self.canary_rollbacks += 1
        self.metrics.counter("viper_rollbacks_total", reason=reason).inc()

    def record_shed(self, reason: str = "") -> None:
        """Admission control refused one request (``reason`` says why)."""
        with self._lock:
            self.requests_shed += 1
        self.metrics.counter("viper_requests_shed_total", reason=reason).inc()

    def record_lease_expired(self, reason: str = "") -> None:
        """The lease registry evicted one subscriber."""
        with self._lock:
            self.leases_expired += 1
        self.metrics.counter("viper_lease_evictions_total", reason=reason).inc()

    def record_breaker_trip(self, site: str = "") -> None:
        """A circuit breaker at ``site`` tripped open."""
        with self._lock:
            self.breaker_trips += 1
        self.metrics.counter("viper_breaker_trips_stats_total", site=site).inc()

    def record_degraded_entry(self) -> None:
        """One server entered degraded (serve-last-known-good) mode."""
        with self._lock:
            self.degraded_entries += 1
        self.metrics.counter("viper_degraded_entries_total").inc()

    def record_wire(self, bytes_total: int, bytes_on_wire: int, delta=None) -> None:
        """One save's wire accounting, once its shipped form is known.

        ``bytes_total`` is what the monolithic path would have moved;
        ``bytes_on_wire`` is what actually moved.  ``delta`` is the
        :class:`~repro.core.transfer.delta.DeltaStats` of the frame that
        shipped (None when the monolithic blob did): its dedup savings
        (reuse ops), counted in real bytes, are rescaled to
        ``bytes_total``'s units.
        """
        saved_dedup = 0
        if delta is not None and delta.bytes_total:
            scale = bytes_total / delta.bytes_total
            saved_dedup = int(delta.bytes_reused * scale)
        with self._lock:
            self.bytes_total += int(bytes_total)
            self.bytes_on_wire += int(bytes_on_wire)
            self.bytes_saved_dedup += saved_dedup
            if delta is not None:
                self.delta_chunks_total += delta.chunks_total
                self.delta_chunks_reused += delta.chunks_reused
                self.delta_hits += 1
        self.metrics.counter("viper_bytes_total").inc(int(bytes_total))
        self.metrics.counter("viper_bytes_on_wire_total").inc(int(bytes_on_wire))
        if saved_dedup:
            self.metrics.counter("viper_bytes_saved_dedup_total").inc(saved_dedup)
        if delta is not None:
            self.metrics.counter("viper_delta_hits_total").inc()

    def record_delta_fallback(self, reason: str = "") -> None:
        """The delta path degraded to monolithic (by design, not error)."""
        with self._lock:
            self.delta_fallbacks += 1
        self.metrics.counter("viper_delta_fallbacks_total", reason=reason).inc()

    # ------------------------------------------------------------------
    def loads_from(self, location: str) -> int:
        with self._lock:
            stats = self._per_location.get(location)
            return stats.loads if stats else 0

    def snapshot(self) -> StatsSnapshot:
        with self._lock:
            return StatsSnapshot(
                locations={
                    loc: LocationStats(s.loads, s.bytes_loaded, s.seconds)
                    for loc, s in self._per_location.items()
                },
                fallbacks=self.fallbacks,
                misses=self.misses,
                retries=self.retries,
                failovers=self.failovers,
                corruptions=self.corruptions,
                recoveries=self.recoveries,
                replayed_ops=self.replayed_ops,
                notification_gaps=self.notification_gaps,
                stale_fallbacks=self.stale_fallbacks,
                swaps_rejected=self.swaps_rejected,
                bytes_total=self.bytes_total,
                bytes_on_wire=self.bytes_on_wire,
                bytes_saved_dedup=self.bytes_saved_dedup,
                delta_chunks_total=self.delta_chunks_total,
                delta_chunks_reused=self.delta_chunks_reused,
                delta_hits=self.delta_hits,
                delta_fallbacks=self.delta_fallbacks,
                canary_promotions=self.canary_promotions,
                canary_rollbacks=self.canary_rollbacks,
                requests_shed=self.requests_shed,
                leases_expired=self.leases_expired,
                breaker_trips=self.breaker_trips,
                degraded_entries=self.degraded_entries,
            )

    def summary(self) -> str:
        snap = self.snapshot()
        parts = []
        for loc in sorted(snap.locations, key=self.rank):
            stats = snap.locations[loc]
            parts.append(
                f"{loc}: {stats.loads} loads, {stats.bytes_loaded} B, "
                f"{stats.seconds:.3f}s"
            )
        parts.append(f"fallbacks: {snap.fallbacks}, misses: {snap.misses}")
        if snap.retries or snap.failovers or snap.corruptions:
            parts.append(
                f"retries: {snap.retries}, failovers: {snap.failovers}, "
                f"corruptions: {snap.corruptions}"
            )
        if snap.recoveries or snap.notification_gaps or snap.stale_fallbacks:
            parts.append(
                f"recoveries: {snap.recoveries} ({snap.replayed_ops} ops), "
                f"gaps: {snap.notification_gaps}, "
                f"stale fallbacks: {snap.stale_fallbacks}, "
                f"swaps rejected: {snap.swaps_rejected}"
            )
        if snap.canary_promotions or snap.canary_rollbacks:
            parts.append(
                f"rollout: {snap.canary_promotions} promotions, "
                f"{snap.canary_rollbacks} rollbacks"
            )
        if (
            snap.requests_shed or snap.leases_expired
            or snap.breaker_trips or snap.degraded_entries
        ):
            parts.append(
                f"overload: {snap.requests_shed} shed, "
                f"{snap.leases_expired} leases expired, "
                f"{snap.breaker_trips} breaker trips, "
                f"{snap.degraded_entries} degraded entries"
            )
        if snap.bytes_total:
            parts.append(
                f"wire: {snap.bytes_on_wire}/{snap.bytes_total} B "
                f"(dedup {snap.bytes_saved_dedup} B @ "
                f"{snap.dedup_hit_ratio:.0%} hit; "
                f"{snap.delta_hits} delta, {snap.delta_fallbacks} fallback)"
            )
        return "; ".join(parts)
