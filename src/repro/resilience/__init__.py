"""Deterministic fault injection and resilient-transfer policies.

Viper's transfer engine (paper §4.3-4.4) composes DMA copies, RDMA
sends, and PFS writes — each of which fails routinely at production
scale.  This package makes partial failure a first-class, *testable*
citizen:

- :mod:`repro.resilience.faults` — a seeded :class:`FaultPlan` that
  injects drops, stalls, tier write failures, and payload corruption
  at configurable probabilities or exact ``(site, op)`` points, via
  zero-overhead hooks in the link timing laws and the tier stores.
- :mod:`repro.resilience.retry` — a :class:`RetryPolicy` (bounded
  attempts, exponential backoff with seeded jitter on the simulated
  clock, per-attempt deadline) and the :func:`execute_with_retry`
  executor used by the transfer engine and the weights handler.

- :mod:`repro.resilience.recovery` — crash recovery: a durable
  write-ahead :class:`MetadataJournal` (JSONL append + snapshot
  compaction + idempotent replay) and the seeded :class:`CrashPlan` /
  :class:`SimulatedCrash` kill points that the crash-restart chaos
  harness uses to die mid-publish, mid-flush, or mid-notify.

- :mod:`repro.resilience.health` — fleet liveness: the
  :class:`LeaseRegistry` lease/heartbeat membership table the
  notification broker uses to evict dead subscribers and reclaim
  their queues.
- :mod:`repro.resilience.breaker` — :class:`CircuitBreaker` /
  :class:`BreakerBoard`: closed/open/half-open failure latches (with
  seeded probe jitter) in front of the handler's retry sites, so a
  persistently failing tier fails fast instead of burning the retry
  budget on every call.

Strategy failover down the paper's GPU -> HOST -> PFS chain and
checksum-verified deserialization live in the transfer layer
(:mod:`repro.core.transfer.handler`, :mod:`repro.dnn.serialization`);
this package supplies the fault model and the retry machinery they
share.
"""

from repro.resilience.faults import (
    FAULT_SEED_ENV,
    FaultKind,
    FaultPlan,
    FaultRule,
    Injection,
)
from repro.resilience.recovery import (
    CrashPlan,
    CrashPoint,
    JournalEntry,
    MetadataJournal,
    SimulatedCrash,
)
from repro.resilience.retry import (
    RETRYABLE_ERRORS,
    RetryOutcome,
    RetryPolicy,
    execute_with_retry,
)
from repro.resilience.health import Lease, LeaseRegistry
from repro.resilience.breaker import (
    BreakerBoard,
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
)

__all__ = [
    "FAULT_SEED_ENV",
    "FaultKind",
    "FaultPlan",
    "FaultRule",
    "Injection",
    "CrashPlan",
    "CrashPoint",
    "JournalEntry",
    "MetadataJournal",
    "SimulatedCrash",
    "RETRYABLE_ERRORS",
    "RetryOutcome",
    "RetryPolicy",
    "execute_with_retry",
    "Lease",
    "LeaseRegistry",
    "BreakerBoard",
    "BreakerConfig",
    "BreakerState",
    "CircuitBreaker",
]
