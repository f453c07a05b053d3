"""Circuit breakers for the transfer stack's retry sites.

:func:`~repro.resilience.retry.execute_with_retry` keeps a *transient*
failure cheap; a *persistently* failing site makes it expensive — every
save or load burns the full attempt budget (plus simulated backoff)
before failing over.  A :class:`CircuitBreaker` in front of each retry
site remembers the exhaustion and fails the next calls fast:

- **closed** — calls flow; consecutive retry-exhaustions count up.
- **open** — calls are refused immediately
  (:class:`~repro.errors.CircuitOpenError`, or a silent skip when the
  caller has somewhere else to go, like the handler's GPU → HOST → PFS
  failover chain).  After ``reset_timeout`` (± seeded probe jitter, so a
  fleet of breakers tripped by one outage doesn't probe in lockstep) the
  breaker half-opens.
- **half-open** — a bounded number of probe calls pass through;
  ``half_open_probes`` consecutive successes close the breaker, any
  failure reopens it and re-draws the probe delay.

Time is an explicit ``now`` everywhere, so breakers run on the simulated
clock in tests and chaos suites (deterministic trip/probe sequences
under ``VIPER_FAULT_SEED``) and on the wall clock in live deployments.

:class:`BreakerBoard` lazily manages one breaker per site behind a
single shared config — the handler asks ``board.allow("stage.gpu", now)``
without caring whether that site has ever failed.
"""

from __future__ import annotations

import enum
import random
import threading
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import CircuitOpenError, ConfigurationError
from repro.obs.metrics import NULL_METRICS

__all__ = ["BreakerState", "BreakerConfig", "CircuitBreaker", "BreakerBoard"]


class BreakerState(enum.Enum):
    """Breaker lifecycle: closed (flowing) / open (refusing) / half-open
    (probing)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerConfig:
    """Trip/probe policy shared by every breaker on a board.

    Attributes:
        failure_threshold: consecutive failures that trip the breaker.
        reset_timeout: seconds a tripped breaker stays open before its
            first half-open probe (simulated or wall seconds — whatever
            clock the caller passes as ``now``).
        probe_jitter: symmetric jitter fraction on ``reset_timeout``
            (0.25 = ±25%), drawn from a per-site seeded stream.
        half_open_probes: consecutive probe successes required to close.
    """

    failure_threshold: int = 3
    reset_timeout: float = 0.5
    probe_jitter: float = 0.25
    half_open_probes: int = 1

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ConfigurationError("failure_threshold must be >= 1")
        if self.reset_timeout <= 0:
            raise ConfigurationError("reset_timeout must be positive")
        if not 0.0 <= self.probe_jitter <= 1.0:
            raise ConfigurationError("probe_jitter must be in [0, 1]")
        if self.half_open_probes < 1:
            raise ConfigurationError("half_open_probes must be >= 1")


class CircuitBreaker:
    """One site's closed/open/half-open failure latch."""

    def __init__(
        self,
        site: str,
        config: Optional[BreakerConfig] = None,
        *,
        rng: Optional[random.Random] = None,
        metrics=None,
        stats=None,
    ):
        self.site = site
        self.config = config if config is not None else BreakerConfig()
        self._rng = rng
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.stats = stats
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._failures = 0          # consecutive, while closed
        self._probe_successes = 0   # consecutive, while half-open
        self._probes_in_flight = 0
        self._open_until = 0.0
        self.trips = 0
        self.fast_fails = 0

    # ------------------------------------------------------------------
    def _probe_delay(self) -> float:
        delay = self.config.reset_timeout
        if self.config.probe_jitter and self._rng is not None:
            delay *= 1.0 + self.config.probe_jitter * (
                2.0 * self._rng.random() - 1.0
            )
        return max(0.0, delay)

    def _trip_locked(self, now: float) -> None:
        self._state = BreakerState.OPEN
        self._open_until = float(now) + self._probe_delay()
        self._failures = 0
        self._probe_successes = 0
        self._probes_in_flight = 0
        self.trips += 1

    # ------------------------------------------------------------------
    @property
    def state(self) -> BreakerState:
        with self._lock:
            return self._state

    def retry_after(self, now: float) -> float:
        """Seconds until the next probe becomes possible (0 when closed)."""
        with self._lock:
            if self._state is BreakerState.CLOSED:
                return 0.0
            return max(0.0, self._open_until - float(now))

    def allow(self, now: float) -> bool:
        """May a call proceed at ``now``?  A refusal is counted.

        An open breaker whose probe delay has elapsed transitions to
        half-open and admits up to ``half_open_probes`` concurrent probe
        calls; further calls are refused until those report back.
        """
        tripped_refusal = False
        with self._lock:
            if self._state is BreakerState.CLOSED:
                return True
            if self._state is BreakerState.OPEN:
                if float(now) >= self._open_until:
                    self._state = BreakerState.HALF_OPEN
                    self._probe_successes = 0
                    self._probes_in_flight = 1
                    return True
                tripped_refusal = True
            elif self._probes_in_flight < self.config.half_open_probes:
                self._probes_in_flight += 1
                return True
            else:
                tripped_refusal = True
            if tripped_refusal:
                self.fast_fails += 1
        self.metrics.counter(
            "viper_breaker_fast_fails_total", site=self.site
        ).inc()
        return False

    def check(self, now: float) -> None:
        """Raise :class:`CircuitOpenError` instead of returning False."""
        if not self.allow(now):
            raise CircuitOpenError(
                f"circuit open at {self.site!r}",
                site=self.site,
                retry_after=self.retry_after(now),
            )

    def record_success(self, now: float) -> None:
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                self._probes_in_flight = max(0, self._probes_in_flight - 1)
                self._probe_successes += 1
                if self._probe_successes >= self.config.half_open_probes:
                    self._state = BreakerState.CLOSED
                    self._failures = 0
            else:
                self._failures = 0

    def record_failure(self, now: float) -> None:
        tripped = False
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                # A failed probe reopens immediately, new jittered delay.
                self._trip_locked(now)
                tripped = True
            elif self._state is BreakerState.CLOSED:
                self._failures += 1
                if self._failures >= self.config.failure_threshold:
                    self._trip_locked(now)
                    tripped = True
        if tripped:
            self.metrics.counter(
                "viper_breaker_trips_total", site=self.site
            ).inc()
            if self.stats is not None:
                self.stats.count("breaker_trips", site=self.site)


class BreakerBoard:
    """Per-site breakers behind one shared config (lazily created)."""

    def __init__(
        self,
        config: Optional[BreakerConfig] = None,
        *,
        seed: Optional[int] = None,
        metrics=None,
        stats=None,
    ):
        self.config = config if config is not None else BreakerConfig()
        self.seed = seed
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.stats = stats
        self._lock = threading.Lock()
        self._breakers: Dict[str, CircuitBreaker] = {}

    def breaker(self, site: str) -> CircuitBreaker:
        with self._lock:
            b = self._breakers.get(site)
            if b is None:
                rng = (
                    random.Random(f"{self.seed}/breaker.{site}")
                    if self.seed is not None
                    else None
                )
                b = self._breakers[site] = CircuitBreaker(
                    site, self.config, rng=rng,
                    metrics=self.metrics, stats=self.stats,
                )
            return b

    def allow(self, site: str, now: float) -> bool:
        return self.breaker(site).allow(now)

    def check(self, site: str, now: float) -> None:
        self.breaker(site).check(now)

    def success(self, site: str, now: float) -> None:
        self.breaker(site).record_success(now)

    def failure(self, site: str, now: float) -> None:
        self.breaker(site).record_failure(now)

    def retry_after(self, site: str, now: float) -> float:
        return self.breaker(site).retry_after(now)

    def states(self) -> Dict[str, BreakerState]:
        with self._lock:
            return {site: b.state for site, b in self._breakers.items()}

    @property
    def trips(self) -> int:
        with self._lock:
            return sum(b.trips for b in self._breakers.values())
