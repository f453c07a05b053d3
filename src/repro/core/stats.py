"""Stats Manager: load-source accounting (paper Fig. 3, optional).

The architecture figure lists an optional *Stats Manager* holding
"cached models on each producer ... used when selecting where to load
the model".  :class:`StatsManager` implements that role for the Model
Weights Handler's location-aware load path: it records, per location,
how many loads were served, the simulated bytes and time spent, and how
often the preferred (cheapest) replica was missing so the load fell back
to a slower tier.  It also counts the deployment's fleet-health events
(retries, failovers, sheds, breaker trips, ...).

A :class:`~repro.obs.metrics.MetricsRegistry` is the only store: each
count is a ``viper_*`` counter (:data:`COUNTERS`, plus the per-location
load series), and :meth:`StatsManager.snapshot` sums them over their
labels.  An armed deployment writes into its own registry, so the counts
reach its exports; a disarmed one (``metrics.enabled`` false) gets a
private registry that nothing exports, so its stats still count.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

from repro.obs.metrics import NULL_METRICS, MetricsRegistry

__all__ = ["LocationStats", "StatsSnapshot", "StatsManager", "LOCATION_RANK", "COUNTERS"]

#: Cheapest-first order of checkpoint locations (the load path prefers
#: the fastest tier that still holds the replica).
LOCATION_RANK: Dict[str, int] = {"gpu": 0, "host_dram": 1, "pfs": 2}

#: StatsSnapshot field -> the registry counter that stores it, in
#: StatsSnapshot order.  Label keys in use: ``site`` (retries, breaker
#: trips), ``src``/``dst`` (failovers), ``location`` (corruptions),
#: ``reason`` (rollbacks, sheds, lease evictions, delta fallbacks).
COUNTERS: Dict[str, str] = {
    "fallbacks": "viper_load_fallbacks_total",
    "misses": "viper_load_misses_total",
    "retries": "viper_retries_total",
    "failovers": "viper_failovers_total",
    "corruptions": "viper_corruptions_total",
    "recoveries": "viper_recoveries_total",
    "replayed_ops": "viper_replayed_ops_total",
    "notification_gaps": "viper_notification_gaps_total",
    "stale_fallbacks": "viper_stale_fallbacks_total",
    "swaps_rejected": "viper_swaps_rejected_total",
    "bytes_total": "viper_bytes_total",
    "bytes_on_wire": "viper_bytes_on_wire_total",
    "bytes_saved_dedup": "viper_bytes_saved_dedup_total",
    "delta_chunks_total": "viper_delta_chunks_total",
    "delta_chunks_reused": "viper_delta_chunks_reused_total",
    "delta_hits": "viper_delta_hits_total",
    "delta_fallbacks": "viper_delta_fallbacks_total",
    "canary_promotions": "viper_promotions_total",
    "canary_rollbacks": "viper_rollbacks_total",
    "requests_shed": "viper_requests_shed_total",
    "leases_expired": "viper_lease_evictions_total",
    "breaker_trips": "viper_breaker_trips_stats_total",
    "degraded_entries": "viper_degraded_entries_total",
}

# Per-location load series, labelled ``location``.
_LOADS, _LOAD_BYTES, _LOAD_SECONDS = (
    "viper_loads_total", "viper_load_bytes_total", "viper_load_seconds",
)
_FIELD_OF = {name: field for field, name in COUNTERS.items()}


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
    fallbacks: int        # preferred replica missing, used a slower one
    misses: int           # no replica present anywhere
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
    """Thread-safe load-source and fleet-health counters, kept in a registry.

    The lock makes each record and each :meth:`snapshot` atomic with
    respect to one another: a multi-counter record is never seen half-applied.
    """

    def __init__(self, metrics=None):
        self._lock = threading.Lock()
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._store = self.metrics if self.metrics.enabled else MetricsRegistry()

    def rank(self, location: str) -> int:
        return LOCATION_RANK.get(location, len(LOCATION_RANK))

    def order(self, replicas) -> Tuple[str, ...]:
        """Replicas sorted cheapest-first."""
        return tuple(sorted(replicas, key=self.rank))

    def _inc(self, field: str, n: int, labels) -> None:
        name = COUNTERS.get(field)
        if name is None:
            raise KeyError(f"{field!r} is not a StatsManager counter")
        self._store.counter(name, **labels).inc(int(n))

    def count(self, field: str, n: int = 1, **labels: object) -> None:
        """Add ``n`` to the :data:`COUNTERS` series ``field`` at ``labels``."""
        with self._lock:
            self._inc(field, n, labels)

    def record_load(self, location: str, nbytes: int, seconds: float,
                    fallback: bool = False) -> None:
        """One load served from ``location`` (``fallback``: not the cheapest)."""
        store = self._store
        with self._lock:
            store.counter(_LOADS, location=location).inc()
            store.counter(_LOAD_BYTES, location=location).inc(int(nbytes))
            store.histogram(_LOAD_SECONDS, location=location).observe(float(seconds))
            if fallback:
                self._inc("fallbacks", 1, {})

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
            self._inc("bytes_total", bytes_total, {})
            self._inc("bytes_on_wire", bytes_on_wire, {})
            if saved_dedup:
                self._inc("bytes_saved_dedup", saved_dedup, {})
            if delta is not None:
                self._inc("delta_chunks_total", delta.chunks_total, {})
                self._inc("delta_chunks_reused", delta.chunks_reused, {})
                self._inc("delta_hits", 1, {})

    def snapshot(self) -> StatsSnapshot:
        """Every counter summed over its labels; locations in first-load order."""
        totals = dict.fromkeys(COUNTERS, 0.0)
        locations: Dict[str, LocationStats] = {}
        with self._lock:
            for inst in self._store.series(*_FIELD_OF, _LOADS, _LOAD_BYTES, _LOAD_SECONDS):
                field = _FIELD_OF.get(inst.name)
                if field is not None:
                    totals[field] += inst.value
                    continue
                stats = locations.setdefault(dict(inst.labels)["location"], LocationStats())
                if inst.name == _LOADS:
                    stats.loads = int(inst.value)
                elif inst.name == _LOAD_BYTES:
                    stats.bytes_loaded = int(inst.value)
                else:
                    stats.seconds = inst.sum
        return StatsSnapshot(locations, **{f: int(v) for f, v in totals.items()})

    def __getattr__(self, name: str):
        # Only reached when normal lookup fails: table fields read as counts.
        if name not in COUNTERS:
            raise AttributeError(f"'StatsManager' object has no attribute {name!r}")
        return getattr(self.snapshot(), name)

    def loads_from(self, location: str) -> int:
        stats = self.snapshot().locations.get(location)
        return stats.loads if stats else 0

    def summary(self) -> str:
        """Locations in rank order; fallbacks, misses and every non-zero
        count; the dedup hit ratio once delta chunks were counted."""
        snap = self.snapshot()
        parts = [
            f"{loc}: {s.loads} loads, {s.bytes_loaded} B, {s.seconds:.3f}s"
            for loc, s in sorted(snap.locations.items(), key=lambda kv: self.rank(kv[0]))
        ]
        parts.append(", ".join(
            f"{field}: {getattr(snap, field)}"
            for field in COUNTERS
            if field in ("fallbacks", "misses") or getattr(snap, field)
        ))
        if snap.delta_chunks_total:
            parts.append(f"dedup hit ratio: {snap.dedup_hit_ratio:.0%}")
        return "; ".join(parts)
