"""End-to-end resilience: retry, strategy failover, telemetry, determinism.

These are the acceptance tests for the resilient transfer path: with a
fault plan failing every GPU and HOST staging write, a save/consumer
round-trip must still complete via PFS failover, with the retries and
failover events visible in the telemetry snapshot — and the whole run
must be reproducible for a fixed seed.
"""

from __future__ import annotations

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
from repro.core.transfer.selector import TransferSelector
from repro.core.transfer.strategies import FAILOVER_ORDER, failover_chain
from repro.errors import RetriesExhausted
from repro.obs.metrics import MetricsRegistry

STATE = {"w": np.arange(256, dtype=np.float32).reshape(16, 16)}

GPU_HOST_DOWN = [
    FaultRule(site="store.put:*hbm*", kind=FaultKind.WRITE_FAIL,
              probability=1.0),
    FaultRule(site="store.put:*ddr*", kind=FaultKind.WRITE_FAIL,
              probability=1.0),
]


def make_viper(rules, seed=7, **kwargs):
    return Viper(
        fault_plan=FaultPlan(rules, seed=seed),
        metrics=kwargs.pop("metrics", MetricsRegistry()),
        **kwargs,
    )


class TestFailoverChain:
    def test_order_matches_paper(self):
        assert FAILOVER_ORDER == (
            TransferStrategy.GPU_TO_GPU,
            TransferStrategy.HOST_TO_HOST,
            TransferStrategy.PFS,
        )

    def test_chain_only_demotes(self):
        assert failover_chain(TransferStrategy.HOST_TO_HOST) == (
            TransferStrategy.HOST_TO_HOST,
            TransferStrategy.PFS,
        )
        assert failover_chain(TransferStrategy.PFS) == (TransferStrategy.PFS,)

    def test_selector_chain_defaults_to_selection(self):
        selector = TransferSelector(
            gpu_direct_available=True,
            gpu_staging_budget=10_000,
            host_staging_budget=10_000,
        )
        assert selector.chain(100)[0] is TransferStrategy.GPU_TO_GPU
        assert selector.chain(100)[-1] is TransferStrategy.PFS
        # A forced selector still fails over past its pin.
        forced = TransferSelector(forced=TransferStrategy.HOST_TO_HOST)
        assert forced.chain(100) == (
            TransferStrategy.HOST_TO_HOST,
            TransferStrategy.PFS,
        )


class TestEndToEndFailover:
    def test_sync_round_trip_survives_gpu_and_host_down(self):
        with make_viper(GPU_HOST_DOWN) as viper:
            result = viper.save_weights("m", STATE, mode=CaptureMode.SYNC)
            assert result.strategy is TransferStrategy.PFS
            assert result.record.location == "pfs"
            assert result.record.durable
            loaded = viper.load_weights("m")
            assert loaded.location == "pfs"
            np.testing.assert_array_equal(loaded.state["w"], STATE["w"])

    def test_async_round_trip_survives_gpu_and_host_down(self):
        with make_viper(GPU_HOST_DOWN) as viper:
            viper.save_weights("m", STATE)  # async
            viper.drain()
            record, _ = viper.metadata.latest("m")
            assert record.location == "pfs"  # published record is accurate
            loaded = viper.load_weights("m")
            assert loaded.location == "pfs"
            np.testing.assert_array_equal(loaded.state["w"], STATE["w"])

    def test_pfs_failover_reverts_delta_wire_accounting(self):
        # Regression: record_wire runs optimistically at encode time;
        # when staging fails over into the PFS the monolithic blob
        # actually ships, so the recorded dedup savings
        # must be undone in the stats counters too (the record's
        # wire_bytes already reverted).
        rng = np.random.default_rng(3)
        v1 = {f"t{i}": rng.standard_normal((64, 32)).astype(np.float32)
              for i in range(8)}
        v2 = {k: v.copy() for k, v in v1.items()}
        v2["t0"] = v2["t0"] + 1.0
        with make_viper(GPU_HOST_DOWN, delta=True) as viper:
            viper.save_weights("m", v1, mode=CaptureMode.SYNC,
                               strategy=TransferStrategy.HOST_TO_HOST)
            viper.load_weights("m")  # registers the held base
            result = viper.save_weights(
                "m", v2, mode=CaptureMode.SYNC,
                strategy=TransferStrategy.HOST_TO_HOST,
            )
            assert result.strategy is TransferStrategy.PFS
            assert result.record.wire_bytes == 0
            snap = viper.handler.stats.snapshot()
        assert snap.bytes_on_wire == snap.bytes_total
        assert snap.bytes_saved_dedup == 0
        assert snap.delta_hits == 0
        assert snap.delta_fallbacks >= 1

    def test_telemetry_snapshot_shows_retries_and_failovers(self):
        metrics = MetricsRegistry()
        with make_viper(GPU_HOST_DOWN, metrics=metrics) as viper:
            viper.save_weights("m", STATE, mode=CaptureMode.SYNC)
            snap = viper.handler.stats.snapshot()
        # Default policy: 3 attempts per strategy -> 2 retries recorded
        # at gpu + 2 at host, one failover per demotion.
        assert snap.retries == 4
        assert snap.failovers == 2
        assert metrics.counter(
            "viper_failovers_total", src="gpu", dst="host"
        ).value == 1
        assert metrics.counter(
            "viper_failovers_total", src="host", dst="pfs"
        ).value == 1
        assert metrics.counter("viper_retries_total", site="stage.gpu").value == 2
        assert "retries: 4, failovers: 2" in viper.handler.stats.summary()

    def test_failover_disabled_raises(self):
        with make_viper(GPU_HOST_DOWN, failover=False) as viper:
            with pytest.raises(RetriesExhausted) as exc_info:
                viper.save_weights("m", STATE, mode=CaptureMode.SYNC)
            assert exc_info.value.site == "stage.gpu"

    def test_async_failure_surfaces_on_drain(self):
        rules = GPU_HOST_DOWN + [
            FaultRule(site="store.put:*lustre*", kind=FaultKind.WRITE_FAIL,
                      probability=1.0),
        ]
        with make_viper(rules) as viper:
            viper.save_weights("m", STATE)
            with pytest.raises(Exception) as exc_info:
                viper.drain()
            assert isinstance(
                exc_info.value.__cause__, RetriesExhausted
            ) or isinstance(exc_info.value, RetriesExhausted)

    def test_transient_fault_recovers_on_same_strategy(self):
        # First GPU put drops; the retry succeeds without failover.
        rules = [
            FaultRule(site="store.put:*hbm*", kind=FaultKind.WRITE_FAIL,
                      at_ops=(0,)),
        ]
        with make_viper(rules) as viper:
            result = viper.save_weights("m", STATE, mode=CaptureMode.SYNC)
            snap = viper.handler.stats.snapshot()
            assert result.strategy is TransferStrategy.GPU_TO_GPU
            assert snap.retries == 1
            assert snap.failovers == 0

    def test_backoff_charged_as_simulated_time(self):
        with make_viper(GPU_HOST_DOWN) as viper:
            result = viper.save_weights("m", STATE, mode=CaptureMode.SYNC)
            assert "retry.backoff" in result.background.breakdown()

    def test_custom_retry_policy_attempt_budget(self):
        policy = RetryPolicy(max_attempts=5, jitter=0.0)
        with make_viper(GPU_HOST_DOWN, retry_policy=policy) as viper:
            viper.save_weights("m", STATE, mode=CaptureMode.SYNC)
            snap = viper.handler.stats.snapshot()
        assert snap.retries == 8  # 4 per failed strategy
        assert snap.failovers == 2


class TestDeterminism:
    def run_workload(self, seed):
        rules = [
            FaultRule(site="store.put:*hbm*", kind=FaultKind.WRITE_FAIL,
                      probability=0.5),
            FaultRule(site="store.put:*ddr*", kind=FaultKind.WRITE_FAIL,
                      probability=0.3),
        ]
        plan = FaultPlan(rules, seed=seed)
        with Viper(fault_plan=plan) as viper:
            for i in range(10):
                viper.save_weights("m", STATE, mode=CaptureMode.SYNC)
                viper.load_weights("m")
            snap = viper.handler.stats.snapshot()
        injections = [(i.site, i.op_index, i.kind) for i in plan.injections]
        return snap.retries, snap.failovers, injections

    def test_same_seed_same_counts(self):
        assert self.run_workload(7) == self.run_workload(7)

    def test_different_seed_different_injections(self):
        assert self.run_workload(7)[2] != self.run_workload(1234)[2]


class TestZeroOverheadWhenDisarmed:
    def test_no_hooks_installed_by_default(self):
        with Viper() as viper:
            assert viper.handler.cluster.pfs.faults is None
            assert viper.handler.consumer.gpu.faults is None

    def test_close_disarms_the_plan(self):
        plan = FaultPlan(GPU_HOST_DOWN, seed=7)
        viper = Viper(fault_plan=plan)
        cluster = viper.cluster
        assert cluster.pfs.faults is plan
        viper.close()
        assert cluster.pfs.faults is None
