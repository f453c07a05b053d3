"""The handler's one breaker x retry x fallback walk, seen from its ends.

Staging and loading share one walk over ``(site, target)`` hops; these
are the regressions of the two hand-woven copies it replaced: the load
path's ``CircuitOpenError`` hint, and the backoff charged after a
retry scope stopped early.
"""

import numpy as np
import pytest

from repro import (
    CaptureMode,
    FaultKind,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    TransferStrategy,
    Viper,
)
from repro.errors import CircuitOpenError, RetriesExhausted, TransferError
from repro.resilience.breaker import BreakerConfig
from repro.resilience.retry import execute_with_retry
from repro.substrates.cost import Cost

STATE = {"w": np.arange(256, dtype=np.float32).reshape(16, 16)}


def test_load_circuit_hint_names_the_refused_replica():
    # The GPU replica is gone and the PFS breaker is open: the hint must
    # be the PFS breaker's, and no breaker is made for a site never tried.
    breaker = BreakerConfig(failure_threshold=1, reset_timeout=4.0)
    with Viper(flush_history=True, breaker=breaker) as viper:
        viper.save_weights(
            "m", STATE, mode=CaptureMode.SYNC,
            strategy=TransferStrategy.GPU_TO_GPU,
        )
        viper.drain()
        viper.consumer_node.gpu.clear()
        viper.breakers.failure("load.pfs", viper.handler.sim_now)
        with pytest.raises(CircuitOpenError) as exc_info:
            viper.load_weights("m")
        hint = viper.breakers.retry_after("load.pfs", viper.handler.sim_now)
        assert exc_info.value.site == "load.pfs"
        assert exc_info.value.retry_after == pytest.approx(hint)
        assert exc_info.value.retry_after > 0
        assert "load.gpu" not in viper.breakers.states()


def test_save_charges_the_backoff_actually_waited():
    # The GPU scope stops after one retry (its next delay would pass the
    # total deadline): 0.1 s was waited, not the 1.5 s a full budget
    # of 0.1 + 0.2 + 0.4 + 0.8 would have taken.
    policy = RetryPolicy(
        max_attempts=5, base_delay=0.1, jitter=0.0, total_deadline=0.15
    )
    gpu_down = FaultPlan(
        [FaultRule(site="store.put:*hbm*", kind=FaultKind.WRITE_FAIL,
                   probability=1.0)],
        seed=7,
    )
    with Viper(fault_plan=gpu_down, retry_policy=policy) as viper:
        result = viper.save_weights("m", STATE, mode=CaptureMode.SYNC)
    assert result.strategy is TransferStrategy.HOST_TO_HOST
    assert result.background.breakdown()["retry.backoff"] == pytest.approx(0.1)


def _fail_then(*outcomes):
    """An op that raises for each TransferError in ``outcomes``, in order,
    and returns each other value."""
    it = iter(outcomes)

    def op():
        value = next(it)
        if isinstance(value, TransferError):
            raise value
        return value

    return op


@pytest.mark.parametrize(
    "op, policy, waited",
    [
        # Every attempt failed: the delays before attempts 2 and 3.
        (
            _fail_then(*[TransferError("down")] * 3),
            RetryPolicy(max_attempts=3, base_delay=0.1, jitter=0.0),
            0.1 + 0.2,
        ),
        # The next delay would pass the total deadline: it never ran.
        (
            _fail_then(*[TransferError("down")] * 2),
            RetryPolicy(max_attempts=5, base_delay=0.1, jitter=0.0,
                        total_deadline=0.15),
            0.1,
        ),
        # A retry succeeded, but past the total deadline.
        (
            _fail_then(TransferError("down"), Cost.of("x", 2.0)),
            RetryPolicy(max_attempts=3, base_delay=0.1, jitter=0.0,
                        total_deadline=1.0),
            0.1,
        ),
    ],
    ids=["all-failed", "deadline-stop", "late-success"],
)
def test_retries_exhausted_carries_backoff_waited(op, policy, waited):
    with pytest.raises(RetriesExhausted) as exc_info:
        execute_with_retry(op, policy, site="s")
    assert exc_info.value.backoff_seconds == pytest.approx(waited)
