"""Seeded, deterministic fault injection for the transfer stack.

A :class:`FaultPlan` is a list of :class:`FaultRule` s plus a seed.  Each
hookable operation in the stack names a *site* — e.g.
``"store.put:polaris.lustre"`` or ``"link.time:polaris.gpudirect"`` — and
asks the armed plan to :meth:`~FaultPlan.fire`.  The plan keeps a
per-site operation counter, so a rule can target an exact ``(site, op)``
point (fully reproducible single faults) or a probability (chaos testing);
the probabilistic draws come from one :class:`random.Random` stream *per
site*, so the injection sequence at a site depends only on the seed and
that site's own operation order, never on cross-thread interleaving with
other sites.

Fault kinds and their effect at a site:

===========  ==============================================================
kind         effect
===========  ==============================================================
DROP         raise :class:`~repro.errors.FaultInjected` (a transport loss)
STALL        multiply the operation's simulated cost by ``stall_factor``
             (a congested link / overloaded OST; surfaces as a deadline
             miss to the retry layer)
WRITE_FAIL   raise :class:`~repro.errors.StorageError` (failed tier write)
CAPACITY     raise :class:`~repro.errors.CapacityError` (tier out of space)
CORRUPT      flip one payload byte (silent data corruption, caught by the
             serialization checksum)
===========  ==============================================================

Hook sites (armed via :meth:`FaultPlan.arm`) live in
:class:`~repro.substrates.memory.storage.TierStore` (``store.put:*`` /
``store.get:*``) and the :mod:`~repro.substrates.network.links` timing
laws (``link.time:*``).  Every hook is a single ``is None`` check when no
plan is armed — the unfaulted hot path pays nothing.

The default seed comes from the ``VIPER_FAULT_SEED`` environment
variable (the CI chaos job sets it to the run id and echoes it), so any
CI failure is reproducible locally with one env var.
"""

from __future__ import annotations

import enum
import fnmatch
import os
import random
import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import (
    CapacityError,
    ConfigurationError,
    FaultInjected,
    StorageError,
)
from repro.obs.metrics import NULL_METRICS

__all__ = [
    "FAULT_SEED_ENV",
    "FaultKind",
    "FaultRule",
    "FaultEffect",
    "Injection",
    "FaultPlan",
]

#: Environment variable supplying the default plan seed (CI sets it to
#: the workflow run id so chaos failures replay locally).
FAULT_SEED_ENV = "VIPER_FAULT_SEED"


def default_seed() -> int:
    """The plan seed from ``VIPER_FAULT_SEED`` (0 when unset/invalid)."""
    raw = os.environ.get(FAULT_SEED_ENV, "0")
    try:
        return int(raw)
    except ValueError:
        return 0


class FaultKind(enum.Enum):
    """What an injected fault does at its site."""

    DROP = "drop"
    STALL = "stall"
    WRITE_FAIL = "write_fail"
    CAPACITY = "capacity"
    CORRUPT = "corrupt"


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: where, what, and how often.

    Attributes:
        site: ``fnmatch`` pattern over site names, e.g. ``"store.put:*"``
            or ``"link.time:*gpudirect"``.
        kind: the fault to inject when the rule fires.
        probability: chance of firing per matching operation (0 disables
            the probabilistic path).
        at_ops: exact per-site operation indices (0-based) at which the
            rule always fires, independent of ``probability``.
        max_injections: total firing budget for this rule (None = no cap).
        stall_factor: simulated-cost multiplier for ``STALL`` faults.
    """

    site: str
    kind: FaultKind
    probability: float = 0.0
    at_ops: Tuple[int, ...] = ()
    max_injections: Optional[int] = None
    stall_factor: float = 50.0

    def __post_init__(self):
        if not self.site:
            raise ConfigurationError("fault rule needs a site pattern")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"fault probability {self.probability} outside [0, 1]",
            )
        if any(op < 0 for op in self.at_ops):
            raise ConfigurationError(f"negative op index in {self.at_ops}")
        if self.max_injections is not None and self.max_injections < 0:
            raise ConfigurationError("max_injections must be non-negative")
        if self.stall_factor < 1.0:
            raise ConfigurationError("stall_factor must be >= 1")
        object.__setattr__(self, "at_ops", tuple(int(op) for op in self.at_ops))

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"site": self.site, "kind": self.kind.value}
        if self.probability:
            out["probability"] = self.probability
        if self.at_ops:
            out["at_ops"] = list(self.at_ops)
        if self.max_injections is not None:
            out["max_injections"] = self.max_injections
        if self.stall_factor != 50.0:
            out["stall_factor"] = self.stall_factor
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultRule":
        known = {
            "site",
            "kind",
            "probability",
            "at_ops",
            "max_injections",
            "stall_factor",
        }
        extra = set(data) - known
        if extra:
            raise ConfigurationError(f"unknown fault-rule keys: {sorted(extra)}")
        kwargs = dict(data)
        kwargs["kind"] = FaultKind(kwargs["kind"])
        if "at_ops" in kwargs:
            kwargs["at_ops"] = tuple(kwargs["at_ops"])
        return cls(**kwargs)


@dataclass(frozen=True)
class Injection:
    """Record of one fired fault (the plan's reproducibility log)."""

    site: str
    op_index: int
    kind: FaultKind


@dataclass
class FaultEffect:
    """Non-raising outcome of :meth:`FaultPlan.fire` for one operation."""

    payload: Optional[bytes] = None  # replacement payload (CORRUPT)
    cost_scale: float = 1.0  # simulated-cost multiplier (STALL)


#: Shared no-effect singleton so unfaulted fired sites allocate nothing.
_NO_EFFECT = FaultEffect()


class FaultPlan:
    """A seeded set of fault rules plus deterministic firing state.

    Thread-safe: the engine worker, the flusher, and the caller's thread
    may all hit armed sites concurrently.  Determinism holds per site:
    two runs issuing the same operation sequence at a site see the same
    injections for the same seed.
    """

    def __init__(
        self,
        rules: Iterable[FaultRule] = (),
        *,
        seed: Optional[int] = None,
        metrics=None,
    ):
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.seed = default_seed() if seed is None else int(seed)
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._lock = threading.Lock()
        self._op_counts: Dict[str, int] = {}
        self._rngs: Dict[str, random.Random] = {}
        self._rule_hits: Dict[int, int] = {}
        self._injections: List[Injection] = []
        self._armed_stores: List[Any] = []
        self._links_hooked = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def injections(self) -> Tuple[Injection, ...]:
        with self._lock:
            return tuple(self._injections)

    def injection_count(self, kind: Optional[FaultKind] = None) -> int:
        with self._lock:
            if kind is None:
                return len(self._injections)
            return sum(1 for inj in self._injections if inj.kind is kind)

    def op_count(self, site: str) -> int:
        with self._lock:
            return self._op_counts.get(site, 0)

    def bind_metrics(self, metrics) -> "FaultPlan":
        """Point injection counters at a live registry (chainable)."""
        self.metrics = metrics if metrics is not None else NULL_METRICS
        return self

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------
    def _decide(self, site: str) -> Optional[FaultRule]:
        """Advance the site's op counter and return the rule to fire."""
        with self._lock:
            op = self._op_counts.get(site, 0)
            self._op_counts[site] = op + 1
            for idx, rule in enumerate(self.rules):
                if not fnmatch.fnmatchcase(site, rule.site):
                    continue
                if (
                    rule.max_injections is not None
                    and self._rule_hits.get(idx, 0) >= rule.max_injections
                ):
                    continue
                hit = op in rule.at_ops
                if not hit and rule.probability > 0.0:
                    rng = self._rngs.get(site)
                    if rng is None:
                        # String seeds hash via SHA-512 in CPython, so the
                        # stream is stable across processes and runs.
                        rng = random.Random(f"{self.seed}/{site}")
                        self._rngs[site] = rng
                    hit = rng.random() < rule.probability
                if hit:
                    self._rule_hits[idx] = self._rule_hits.get(idx, 0) + 1
                    self._injections.append(Injection(site, op, rule.kind))
                    return rule
        return None

    def fire(self, site: str, payload=None) -> FaultEffect:
        """Evaluate the plan at ``site`` for one operation.

        Raises the mapped error for DROP / WRITE_FAIL / CAPACITY rules;
        returns a :class:`FaultEffect` carrying a corrupted payload copy
        and/or a cost multiplier otherwise.
        """
        rule = self._decide(site)
        if rule is None:
            return _NO_EFFECT
        kind = rule.kind
        self.metrics.counter(
            "resilience_faults_injected_total",
            site=site,
            kind=kind.value,
        ).inc()
        if kind is FaultKind.DROP:
            raise FaultInjected(
                f"injected fault: dropped operation at {site}",
                site=site,
                kind=kind.value,
            )
        if kind is FaultKind.WRITE_FAIL:
            raise StorageError(f"injected fault: write failed at {site}")
        if kind is FaultKind.CAPACITY:
            raise CapacityError(f"injected fault: no capacity at {site}")
        if kind is FaultKind.STALL:
            return FaultEffect(cost_scale=rule.stall_factor)
        # CORRUPT: flip one byte at a position drawn from the site stream.
        if payload is None:
            return _NO_EFFECT
        return FaultEffect(payload=self._corrupt(site, payload))

    def _corrupt(self, site: str, payload) -> bytes:
        mv = memoryview(payload)
        if mv.ndim != 1 or mv.itemsize != 1:
            mv = mv.cast("B")
        if mv.nbytes == 0:
            return bytes(mv)
        with self._lock:
            rng = self._rngs.get(site)
            if rng is None:
                rng = random.Random(f"{self.seed}/{site}")
                self._rngs[site] = rng
            pos = rng.randrange(mv.nbytes)
        out = bytearray(mv)
        out[pos] ^= 0xFF
        return bytes(out)

    # ------------------------------------------------------------------
    # Arming / disarming
    # ------------------------------------------------------------------
    def arm(
        self,
        cluster=None,
        *,
        stores: Iterable[Any] = (),
        links_hook: bool = False,
    ) -> "FaultPlan":
        """Install this plan's hooks on a cluster and/or explicit targets.

        ``cluster`` arms its PFS store and every node's GPU and DRAM
        stores.  ``links_hook=True`` additionally installs the
        module-level hook in :mod:`repro.substrates.network.links`, so
        ``link.time:*`` rules can stall the timing laws themselves.
        """
        stores = list(stores)
        if cluster is not None:
            stores.append(cluster.pfs)
            for node in cluster.nodes:
                stores.extend((node.gpu, node.dram))
        for store in stores:
            store.faults = self
            self._armed_stores.append(store)
        if links_hook:
            from repro.substrates.network import links

            links.install_fault_hook(self)
            self._links_hooked = True
        return self

    def disarm(self) -> None:
        """Remove every hook this plan installed via :meth:`arm`."""
        for store in self._armed_stores:
            if getattr(store, "faults", None) is self:
                store.faults = None
        self._armed_stores.clear()
        if self._links_hooked:
            from repro.substrates.network import links

            links.uninstall_fault_hook(self)
            self._links_hooked = False

    def __enter__(self) -> "FaultPlan":
        return self

    def __exit__(self, *exc) -> None:
        self.disarm()

    # ------------------------------------------------------------------
    # Serialization (plans round-trip through plain dicts, e.g. JSON)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "rules": [rule.to_dict() for rule in self.rules],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        known = {"seed", "rules"}
        extra = set(data) - known
        if extra:
            raise ConfigurationError(f"unknown fault-plan keys: {sorted(extra)}")
        rules = [FaultRule.from_dict(r) for r in data.get("rules", [])]
        return cls(rules, seed=data.get("seed"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultPlan(seed={self.seed}, rules={len(self.rules)}, "
            f"injected={len(self._injections)})"
        )
