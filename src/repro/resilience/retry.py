"""Retry with exponential backoff and jitter, on the simulated clock.

:class:`RetryPolicy` describes the budget (attempts, delays, per-attempt
deadline); :func:`execute_with_retry` runs one operation under it.  Two
deliberate properties:

- **Simulated backoff.**  Delays are charged as simulated seconds (the
  caller folds ``backoff_seconds`` into its :class:`~repro.substrates.cost.Cost`
  timeline); the worker thread never sleeps, so chaos suites stay fast
  and deterministic.
- **Seeded jitter.**  The jitter draw comes from a caller-supplied
  :class:`random.Random`, so two runs with the same seed produce
  identical backoff sequences — the property the CI chaos job's
  "reproduce with one env var" contract rests on.

The per-attempt deadline closes the stall loophole: an injected channel
stall makes the operation *succeed* with an inflated simulated cost, and
only a deadline turns that into a detectable (and retryable) timeout —
exactly how a wall-clock timeout converts a hung RDMA send into an error.

:class:`~repro.errors.RetriesExhausted` is never retried, so nesting
retry scopes (the async engine around the handler around a tier store)
cannot multiply attempt budgets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple, Type

from repro.errors import (
    CapacityError,
    ConfigurationError,
    IntegrityError,
    RetriesExhausted,
    StorageError,
    TransferError,
)
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER

__all__ = [
    "RETRYABLE_ERRORS",
    "RetryPolicy",
    "RetryOutcome",
    "execute_with_retry",
]

#: Errors worth retrying: transient transport / storage / integrity
#: failures.  ``FaultInjected`` is a ``TransferError`` subclass, so every
#: injected drop is retryable by construction.
RETRYABLE_ERRORS: Tuple[Type[BaseException], ...] = (
    TransferError,
    StorageError,
    CapacityError,
    IntegrityError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and jitter.

    Attributes:
        max_attempts: total tries, including the first (1 = no retries).
        base_delay: simulated seconds before the first retry.
        multiplier: backoff growth per retry (``base * mult**(n-1)``).
        max_delay: backoff cap in simulated seconds.
        jitter: symmetric jitter fraction (0.25 = +/-25% of the delay).
        attempt_deadline: per-attempt budget in simulated seconds; an
            attempt whose simulated cost exceeds it counts as a timeout
            and is retried (None disables the check).
        total_deadline: whole-operation budget in simulated seconds
            across *all* attempts — successful attempt costs plus the
            backoff between attempts.  Once the accumulated elapsed time
            exceeds it, :class:`~repro.errors.RetriesExhausted` is
            raised with the attempts made and seconds elapsed, even if
            attempt budget remains (None disables the check).
    """

    max_attempts: int = 3
    base_delay: float = 0.005
    multiplier: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.25
    attempt_deadline: Optional[float] = None
    total_deadline: Optional[float] = None

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigurationError("retry delays must be non-negative")
        if self.multiplier < 1.0:
            raise ConfigurationError("retry multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError("retry jitter must be in [0, 1]")
        if self.attempt_deadline is not None and self.attempt_deadline <= 0:
            raise ConfigurationError("attempt_deadline must be positive")
        if self.total_deadline is not None and self.total_deadline <= 0:
            raise ConfigurationError("total_deadline must be positive")
        if (
            self.total_deadline is not None
            and self.attempt_deadline is not None
            and self.total_deadline < self.attempt_deadline
        ):
            raise ConfigurationError(
                "total_deadline must be >= attempt_deadline"
            )

    def delay_for(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Backoff before retry number ``attempt`` (1-based), jittered."""
        if attempt < 1:
            raise ConfigurationError(f"attempt must be >= 1, got {attempt}")
        delay = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        if self.jitter and rng is not None:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, delay)


@dataclass
class RetryOutcome:
    """A successful :func:`execute_with_retry` run."""

    value: Any
    attempts: int
    backoff_seconds: float
    errors: Tuple[BaseException, ...]

    @property
    def retried(self) -> bool:
        return self.attempts > 1


def execute_with_retry(
    op: Callable[[], Any],
    policy: RetryPolicy,
    *,
    site: str = "op",
    rng: Optional[random.Random] = None,
    retryable: Tuple[Type[BaseException], ...] = RETRYABLE_ERRORS,
    cost_fn: Optional[Callable[[Any], float]] = None,
    tracer=None,
    metrics=None,
    on_retry: Optional[Callable[[str, int, BaseException], None]] = None,
) -> RetryOutcome:
    """Run ``op`` under ``policy``; raise :class:`RetriesExhausted` on failure.

    ``cost_fn`` extracts an attempt's simulated seconds from its return
    value for the deadline check (defaults to ``value.total`` when the
    value looks like a :class:`~repro.substrates.cost.Cost`).  ``on_retry``
    fires once per abandoned attempt — the handler uses it to count
    retries into its stats snapshot.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    metrics = metrics if metrics is not None else NULL_METRICS
    errors: list = []
    backoff_total = 0.0
    # Whole-operation budget: backoff between attempts plus the simulated
    # cost of attempts whose cost is observable (a failed attempt raises
    # before its cost is known, so only successful costs accumulate).
    elapsed_total = 0.0

    def _exhaust_total(attempts: int) -> RetriesExhausted:
        metrics.counter(
            "resilience_retries_exhausted_total", site=site
        ).inc()
        exc = RetriesExhausted(
            f"{site}: total deadline {policy.total_deadline:.6f}s exceeded "
            f"after {attempts} attempt(s), {elapsed_total:.6f}s elapsed",
            site=site,
            attempts=attempts,
            backoff_seconds=backoff_total,
        )
        if errors:
            exc.__cause__ = errors[-1]
        return exc

    for attempt in range(1, policy.max_attempts + 1):
        failure: Optional[BaseException] = None
        with tracer.span(
            "resilience.attempt",
            track="resilience",
            site=site,
            attempt=attempt,
        ) as span:
            try:
                value = op()
            except RetriesExhausted:
                raise  # a nested retry scope already spent its budget
            except retryable as exc:
                failure = exc
                span.set(error=type(exc).__name__)
            else:
                sim_seconds = (
                    cost_fn(value)
                    if cost_fn is not None
                    else getattr(value, "total", None)
                )
                if (
                    policy.attempt_deadline is not None
                    and sim_seconds is not None
                    and sim_seconds > policy.attempt_deadline
                ):
                    failure = TransferError(
                        f"{site}: attempt {attempt} took {sim_seconds:.6f}s "
                        f"simulated, over the {policy.attempt_deadline:.6f}s "
                        f"deadline"
                    )
                    span.set(error="deadline", sim_seconds=sim_seconds)
                else:
                    elapsed_total = backoff_total + (
                        float(sim_seconds) if sim_seconds is not None else 0.0
                    )
                    if (
                        policy.total_deadline is not None
                        and elapsed_total > policy.total_deadline
                    ):
                        # The operation succeeded, but past its whole-run
                        # budget — the caller already gave up on it.
                        raise _exhaust_total(attempt)
                    return RetryOutcome(
                        value=value,
                        attempts=attempt,
                        backoff_seconds=backoff_total,
                        errors=tuple(errors),
                    )
        assert failure is not None  # the success branch returned above
        errors.append(failure)
        if attempt < policy.max_attempts:
            elapsed_total = backoff_total + policy.delay_for(attempt, rng)
            if (
                policy.total_deadline is not None
                and elapsed_total > policy.total_deadline
            ):
                # Backoff alone would burn the whole-operation budget:
                # stop early instead of sleeping past the deadline (the
                # delay never ran, so it is not charged).
                raise _exhaust_total(attempt)
            backoff_total = elapsed_total
            metrics.counter("resilience_retries_total", site=site).inc()
            if on_retry is not None:
                on_retry(site, attempt, failure)
    metrics.counter("resilience_retries_exhausted_total", site=site).inc()
    raise RetriesExhausted(
        f"{site}: all {policy.max_attempts} attempts failed "
        f"(last: {errors[-1]!r})",
        site=site,
        attempts=policy.max_attempts,
        backoff_seconds=backoff_total,
    ) from errors[-1]
