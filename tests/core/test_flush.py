"""History flush tests: durability and faults at the PFS, end to end.

The flush runs on the handler's ``viper-flusher`` worker under the
deployment's RetryPolicy, so every retryable fault kind at the PFS put
is retried, and a flush that runs out of retries is listed, not raised.
"""

import numpy as np
import pytest

from repro import CaptureMode, FaultKind, FaultPlan, FaultRule, Viper
from repro.substrates.profiles import POLARIS

PFS_PUT = f"store.put:{POLARIS.pfs.name}"
STATE = {"w": np.arange(64, dtype=np.float32).reshape(8, 8)}


def save_versions(viper, n):
    for _ in range(n):
        viper.save_weights("m", STATE, mode=CaptureMode.SYNC)
        viper.drain()


def durable(viper, version):
    return viper.metadata.record("m", version)[0].durable


class TestFlushing:
    def test_flush_writes_and_marks_durable(self):
        with Viper(flush_history=True) as viper:
            save_versions(viper, 1)
            record, _ = viper.metadata.record("m", 1)
            assert record.durable
            # The memory copy stays primary; the PFS joins the replica set.
            assert record.location == "gpu"
            assert "pfs" in record.replicas
            assert viper.cluster.pfs.get("m/v1")[0] == (
                viper.consumer_node.gpu.get("m/v1")[0]
            )

    def test_multiple_jobs_processed_in_order(self):
        with Viper(flush_history=True) as viper:
            for _ in range(3):
                viper.save_weights("m", STATE, mode=CaptureMode.SYNC)
            viper.drain()
            assert viper.cluster.pfs.keys() == ("m/v1", "m/v2", "m/v3")
            assert [durable(viper, v) for v in (1, 2, 3)] == [True] * 3

    def test_background_cost_accumulates(self):
        with Viper(flush_history=True) as viper:
            save_versions(viper, 2)
            assert viper.handler.flusher.completed == 2
            assert viper.handler.flusher.background_cost.total > 0
            # The delivery engine counts deliveries only; SYNC ran none.
            assert viper.handler.engine.background_cost.total == 0


class TestFailureInjection:
    @pytest.mark.parametrize(
        "kind", [FaultKind.DROP, FaultKind.CAPACITY, FaultKind.WRITE_FAIL],
        ids=lambda kind: kind.value,
    )
    def test_transient_failure_retried(self, kind):
        plan = FaultPlan([FaultRule(site=PFS_PUT, kind=kind, at_ops=(0,))])
        with Viper(flush_history=True, fault_plan=plan) as viper:
            for _ in range(3):
                viper.save_weights("m", STATE, mode=CaptureMode.SYNC)
            viper.drain()
            assert plan.injection_count(kind) == 1
            assert [durable(viper, v) for v in (1, 2, 3)] == [True] * 3
            assert viper.handler.flusher.failures == ()

    def test_persistent_failure_recorded(self):
        # Every attempt the default RetryPolicy grants v1 fails.
        plan = FaultPlan(
            [FaultRule(site=PFS_PUT, kind=FaultKind.WRITE_FAIL, at_ops=(0, 1, 2))]
        )
        with Viper(flush_history=True, fault_plan=plan) as viper:
            save_versions(viper, 1)  # drain does not raise
            assert viper.handler.flusher.failures == ("flush m/v1",)
            assert "m/v1" not in viper.cluster.pfs
            assert not durable(viper, 1)

    def test_failure_does_not_block_later_jobs(self):
        plan = FaultPlan(
            [FaultRule(site=PFS_PUT, kind=FaultKind.DROP, at_ops=(0, 1, 2))]
        )
        with Viper(flush_history=True, fault_plan=plan) as viper:
            save_versions(viper, 2)
            assert viper.handler.flusher.failures == ("flush m/v1",)
            assert not durable(viper, 1)
            assert durable(viper, 2)
            assert "m/v2" in viper.cluster.pfs
