"""Exception hierarchy for the Viper reproduction.

Every error raised by the library derives from :class:`ViperError`, so a
caller embedding Viper in a larger workflow can catch one base class.  The
subclasses mirror the major subsystems: storage tiers, network transfer,
metadata coordination, scheduling, and configuration.
"""

from __future__ import annotations


class ViperError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ViperError):
    """A configuration object is inconsistent or out of range."""


class CapacityError(ViperError):
    """A storage tier does not have room for the requested object."""

    def __init__(self, message: str, *, requested: int = 0, available: int = 0):
        super().__init__(message)
        self.requested = int(requested)
        self.available = int(available)


class StorageError(ViperError):
    """A read or write against a storage tier failed."""


class ObjectNotFoundError(StorageError, KeyError):
    """The requested object key does not exist in the tier."""


class IntegrityError(StorageError):
    """A checkpoint's checksum did not match its payload (corruption)."""

    def __init__(self, message: str, *, expected: int = 0, actual: int = 0):
        super().__init__(message)
        self.expected = int(expected)
        self.actual = int(actual)


class TransferError(ViperError):
    """A point-to-point model transfer failed."""


class ChannelClosedError(TransferError):
    """The communication channel was closed while an operation was pending."""


class FaultInjected(TransferError):
    """An armed :class:`~repro.resilience.faults.FaultPlan` fired at a site.

    Deliberately a :class:`TransferError` subclass: injected link drops
    must look exactly like real transport failures to every caller that
    does not special-case them, so the recovery path under test is the
    production one.
    """

    def __init__(self, message: str, *, site: str = "", kind: str = ""):
        super().__init__(message)
        self.site = site
        self.kind = kind


class DeltaBaseError(TransferError):
    """A delta frame's negotiated base blob is missing or mismatched.

    Not a corruption: the frame itself is intact, the *reader* lacks the
    base version it was encoded against (a restarted consumer, an evicted
    cache).  Handlers catch this and degrade to the monolithic path.
    """


class RetriesExhausted(TransferError):
    """Every retry attempt at one site failed; the last error is chained.

    Never itself retried: the retry executor re-raises it immediately so
    nested retry scopes (engine around handler around store) cannot
    multiply attempt budgets.  ``backoff_seconds`` is the simulated
    backoff actually waited: the delays that preceded attempts that ran.
    """

    def __init__(
        self,
        message: str,
        *,
        site: str = "",
        attempts: int = 0,
        backoff_seconds: float = 0.0,
    ):
        super().__init__(message)
        self.site = site
        self.attempts = int(attempts)
        self.backoff_seconds = float(backoff_seconds)


class CircuitOpenError(ViperError):
    """A circuit breaker is open: the call was refused without attempting.

    Deliberately *not* a :class:`TransferError`: an open circuit means the
    site has already burned through enough retry budgets to trip, so the
    fast-fail must never be retried in place.  Callers either fail over
    to a different site (the handler's strategy chain) or surface the
    error to a degraded-mode policy.  ``retry_after`` hints when the
    breaker's next half-open probe becomes possible (simulated seconds).
    """

    def __init__(self, message: str, *, site: str = "", retry_after: float = 0.0):
        super().__init__(message)
        self.site = site
        self.retry_after = float(retry_after)


class MetadataError(ViperError):
    """The metadata store rejected an operation."""


class StaleVersionError(MetadataError):
    """A compare-and-swap style metadata update observed a newer version."""

    def __init__(self, message: str, *, expected: int = -1, actual: int = -1):
        super().__init__(message)
        self.expected = int(expected)
        self.actual = int(actual)


class RecoveryError(ViperError):
    """Crash recovery could not restore a consistent state."""


class JournalError(RecoveryError):
    """The metadata write-ahead journal is unreadable or inconsistent."""


class NotificationError(ViperError):
    """The publish-subscribe notification module failed."""


class ScheduleError(ViperError):
    """A checkpoint schedule could not be computed or is invalid."""


class FitError(ScheduleError):
    """A learning-curve function could not be fitted to warm-up losses."""


class ServingError(ViperError):
    """The inference serving substrate failed."""


class RolloutError(ServingError):
    """The canary rollout controller was misconfigured or misused."""


class OverloadError(ServingError):
    """Admission control shed a request before it was scored.

    Typed and retryable-by-contract: the server is healthy but out of
    capacity (or the request's deadline already passed), so the caller
    should back off for ``retry_after`` seconds and resubmit — the
    ``Retry-After`` HTTP idiom.  ``reason`` is one of ``"rate"``,
    ``"concurrency"``, or ``"deadline"``.
    """

    retryable = True

    def __init__(
        self, message: str, *, reason: str = "", retry_after: float = 0.0
    ):
        super().__init__(message)
        self.reason = reason
        self.retry_after = float(retry_after)


class WorkflowError(ViperError):
    """A coupled producer/consumer workflow run failed."""


class SimulationError(ViperError):
    """The discrete-event simulation reached an inconsistent state."""
