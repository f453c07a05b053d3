"""Admission control: bounded load in front of the inference server.

Without it, traffic beyond capacity queues unboundedly inside
:class:`~repro.serving.server.InferenceServer` — latency grows without
limit and *every* request eventually misses its deadline.  Admission
control sheds the excess at the door instead, so the requests that are
admitted finish within budget (the Checkmate property, applied to the
serving side: keep the overload off the hot path).

Three gates, checked in order, each with its own shed reason:

``deadline``
    The request carries an absolute deadline (or a relative budget the
    server resolves against its clock).  A request that can no longer
    finish in time — ``now + t_infer > deadline`` — is shed *before*
    scoring, never after; work on a dead request is pure waste.
``rate``
    A :class:`TokenBucket`: sustained throughput capped at ``rate``
    requests/second with transient bursts up to ``burst``.  The bucket
    is monotone under any time-reversal-free clock — a clock reading
    lower than one already observed mints no tokens (hypothesis-tested).
``concurrency``
    At most ``max_inflight`` requests in service at once.

Every shed is counted (per reason), logged to a bounded decision log
(JSONL-exportable for the CI overload-chaos artifacts), and surfaced to
the caller as a typed, retryable :class:`~repro.errors.OverloadError`
carrying a ``Retry-After``-style hint.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional

from repro.errors import ConfigurationError, OverloadError
from repro.obs.exporters import write_jsonl
from repro.obs.metrics import NULL_METRICS

__all__ = ["TokenBucket", "AdmissionConfig", "AdmissionController"]


class TokenBucket:
    """Classic token bucket on an explicit clock.

    Invariants (property-tested):

    - admissions over any window ``[t0, t1]`` never exceed
      ``rate * (t1 - t0) + burst``;
    - a ``now`` below the highest clock value already seen refills
      nothing (monotone under time-reversal-free clocks);
    - a denied acquire never mutates state, so deny-then-retry at the
      same instant stays denied.
    """

    def __init__(self, rate: float, burst: float):
        if rate <= 0:
            raise ConfigurationError("token bucket rate must be positive")
        if burst < 1:
            raise ConfigurationError("token bucket burst must be >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self._lock = threading.Lock()
        self._tokens = float(burst)
        self._last: Optional[float] = None

    def _refill_locked(self, now: float) -> None:
        if self._last is None:
            self._last = now
            return
        elapsed = now - self._last
        if elapsed <= 0:
            return  # a rewinding clock mints nothing
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._last = now

    def available(self, now: float) -> float:
        """Tokens on hand at ``now`` (refilled but not consumed)."""
        with self._lock:
            self._refill_locked(float(now))
            return self._tokens

    def try_acquire(self, now: float, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if on hand; a denial changes nothing."""
        with self._lock:
            self._refill_locked(float(now))
            if self._tokens + 1e-12 < tokens:
                return False
            self._tokens -= tokens
            return True

    def retry_after(self, now: float, tokens: float = 1.0) -> float:
        """Seconds until ``tokens`` will be on hand at the refill rate."""
        with self._lock:
            self._refill_locked(float(now))
            deficit = tokens - self._tokens
        if deficit <= 0:
            return 0.0
        return deficit / self.rate


@dataclass(frozen=True)
class AdmissionConfig:
    """Admission policy for one server.

    Attributes:
        rate: sustained admission rate, requests per (simulated) second.
        burst: token-bucket depth — transient burst the server absorbs.
        max_inflight: concurrent requests in service (0 = unlimited).
        default_budget: per-request deadline budget in seconds applied
            when the caller passes none (None = requests without an
            explicit deadline are never deadline-shed).
    """

    rate: float = 1000.0
    burst: float = 32.0
    max_inflight: int = 0
    default_budget: Optional[float] = None

    def __post_init__(self):
        if self.rate <= 0:
            raise ConfigurationError("admission rate must be positive")
        if self.burst < 1:
            raise ConfigurationError("admission burst must be >= 1")
        if self.max_inflight < 0:
            raise ConfigurationError("max_inflight must be non-negative")
        if self.default_budget is not None and self.default_budget <= 0:
            raise ConfigurationError("default_budget must be positive")


#: Bounded decision-log depth: enough for a post-mortem, bounded under
#: sustained overload (the counters stay exact past eviction).
_MAX_DECISION_LOG = 10_000


class AdmissionController:
    """Token bucket + concurrency limiter + deadline shedding."""

    def __init__(
        self,
        config: Optional[AdmissionConfig] = None,
        *,
        metrics=None,
        stats=None,
        name: str = "server",
    ):
        self.config = config if config is not None else AdmissionConfig()
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.stats = stats
        self.name = name
        self.bucket = TokenBucket(self.config.rate, self.config.burst)
        self._lock = threading.Lock()
        self._inflight = 0
        self.admitted = 0
        self.shed: Dict[str, int] = {"deadline": 0, "rate": 0, "concurrency": 0}
        #: Shed decisions, newest-last, bounded (JSONL-exportable).
        self.decisions: Deque[Dict[str, float]] = deque(maxlen=_MAX_DECISION_LOG)

    # ------------------------------------------------------------------
    @property
    def shed_total(self) -> int:
        with self._lock:
            return sum(self.shed.values())

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def resolve_deadline(
        self, now: float, deadline: Optional[float]
    ) -> Optional[float]:
        """Explicit deadline wins; otherwise apply the default budget."""
        if deadline is not None:
            return float(deadline)
        if self.config.default_budget is not None:
            return float(now) + self.config.default_budget
        return None

    def _shed(
        self, reason: str, now: float, retry_after: float,
        deadline: Optional[float],
    ) -> OverloadError:
        with self._lock:
            self.shed[reason] = self.shed.get(reason, 0) + 1
            entry = {"t": float(now), "reason": reason,
                     "retry_after": float(retry_after)}
            if deadline is not None:
                entry["deadline"] = float(deadline)
            self.decisions.append(entry)
        self.metrics.counter(
            "server_requests_shed_total", server=self.name, reason=reason
        ).inc()
        if self.stats is not None:
            self.stats.count("requests_shed", reason=reason)
        return OverloadError(
            f"request shed ({reason}); retry after {retry_after:.4f}s",
            reason=reason,
            retry_after=retry_after,
        )

    def admit(
        self,
        now: float,
        *,
        deadline: Optional[float] = None,
        service_time: float = 0.0,
    ) -> Optional[float]:
        """Admit one request at ``now`` or raise :class:`OverloadError`.

        ``service_time`` is the expected time-in-service, so a request
        whose deadline cannot be met even if started immediately is shed
        up front.  Returns the resolved absolute deadline (None when the
        request carries no budget).  A successful admit takes one token
        and one concurrency slot; the caller must :meth:`release` the
        slot when the request finishes.
        """
        now = float(now)
        resolved = self.resolve_deadline(now, deadline)
        if resolved is not None and now + float(service_time) > resolved:
            # Dead on arrival: shed before any token or slot is consumed.
            raise self._shed("deadline", now, 0.0, resolved)
        if not self.bucket.try_acquire(now):
            raise self._shed(
                "rate", now, self.bucket.retry_after(now), resolved
            )
        slot_free = True
        if self.config.max_inflight:
            with self._lock:
                if self._inflight >= self.config.max_inflight:
                    slot_free = False
                else:
                    self._inflight += 1
        else:
            with self._lock:
                self._inflight += 1
        if not slot_free:
            raise self._shed(
                "concurrency", now, max(float(service_time), 0.0), resolved
            )
        with self._lock:
            self.admitted += 1
        return resolved

    def release(self) -> None:
        """One admitted request left service; free its concurrency slot."""
        with self._lock:
            self._inflight = max(0, self._inflight - 1)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            out = dict(self.shed)
            out["admitted"] = self.admitted
            out["inflight"] = self._inflight
            return out

    def write_shed_log(self, path) -> int:
        """Dump the retained shed decisions as JSONL; returns line count."""
        with self._lock:
            decisions = list(self.decisions)
        return write_jsonl(path, decisions)
