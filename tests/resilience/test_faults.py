"""Unit tests for the seeded fault-injection layer."""

from __future__ import annotations

import pytest

from repro.errors import (
    CapacityError,
    ConfigurationError,
    FaultInjected,
    StorageError,
)
from repro.obs.metrics import MetricsRegistry
from repro.resilience import FaultKind, FaultPlan, FaultRule
from repro.substrates.memory.storage import TierStore
from repro.substrates.network import links


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

class TestFaultRule:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultRule(site="", kind=FaultKind.DROP)
        with pytest.raises(ConfigurationError):
            FaultRule(site="x", kind=FaultKind.DROP, probability=1.5)
        with pytest.raises(ConfigurationError):
            FaultRule(site="x", kind=FaultKind.DROP, at_ops=(-1,))
        with pytest.raises(ConfigurationError):
            FaultRule(site="x", kind=FaultKind.STALL, stall_factor=0.5)
        with pytest.raises(ConfigurationError):
            FaultRule(site="x", kind=FaultKind.DROP, max_injections=-1)

    def test_dict_round_trip(self):
        rule = FaultRule(
            site="store.put:*",
            kind=FaultKind.CORRUPT,
            probability=0.25,
            at_ops=(3, 5),
            max_injections=2,
        )
        assert FaultRule.from_dict(rule.to_dict()) == rule

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown fault-rule"):
            FaultRule.from_dict({"site": "x", "kind": "drop", "oops": 1})


# ---------------------------------------------------------------------------
# Plan firing semantics
# ---------------------------------------------------------------------------

class TestFaultPlanFiring:
    def test_exact_op_injection(self):
        plan = FaultPlan(
            [FaultRule(site="s", kind=FaultKind.DROP, at_ops=(2,))], seed=1
        )
        plan.fire("s")
        plan.fire("s")
        with pytest.raises(FaultInjected) as exc_info:
            plan.fire("s")
        assert exc_info.value.site == "s"
        assert exc_info.value.kind == "drop"
        plan.fire("s")  # op 3: clean again
        assert plan.injection_count() == 1
        assert plan.op_count("s") == 4

    def test_kind_to_error_mapping(self):
        for kind, exc_type in [
            (FaultKind.DROP, FaultInjected),
            (FaultKind.WRITE_FAIL, StorageError),
            (FaultKind.CAPACITY, CapacityError),
        ]:
            plan = FaultPlan([FaultRule(site="s", kind=kind, at_ops=(0,))])
            with pytest.raises(exc_type):
                plan.fire("s")

    def test_stall_returns_cost_scale(self):
        plan = FaultPlan(
            [FaultRule(site="s", kind=FaultKind.STALL, at_ops=(0,),
                       stall_factor=25.0)]
        )
        assert plan.fire("s").cost_scale == 25.0
        assert plan.fire("s").cost_scale == 1.0

    def test_corrupt_flips_exactly_one_byte(self):
        plan = FaultPlan(
            [FaultRule(site="s", kind=FaultKind.CORRUPT, at_ops=(0,))], seed=3
        )
        payload = bytes(range(64))
        effect = plan.fire("s", payload=payload)
        assert effect.payload is not None
        diffs = [i for i, (a, b) in enumerate(zip(payload, effect.payload))
                 if a != b]
        assert len(diffs) == 1
        assert effect.payload[diffs[0]] == payload[diffs[0]] ^ 0xFF

    def test_probability_is_seed_deterministic(self):
        def run(seed):
            plan = FaultPlan(
                [FaultRule(site="s", kind=FaultKind.STALL, probability=0.3)],
                seed=seed,
            )
            return [plan.fire("s").cost_scale != 1.0 for _ in range(200)]

        assert run(7) == run(7)
        assert run(7) != run(8)  # astronomically unlikely to collide

    def test_site_streams_are_independent(self):
        # Interleaving ops at another site must not perturb this site's
        # injection sequence (the multi-thread determinism guarantee).
        def run(interleave):
            plan = FaultPlan(
                [FaultRule(site="a", kind=FaultKind.STALL, probability=0.3)],
                seed=7,
            )
            out = []
            for _ in range(100):
                if interleave:
                    plan.fire("b")
                out.append(plan.fire("a").cost_scale != 1.0)
            return out

        assert run(False) == run(True)

    def test_max_injections_budget(self):
        plan = FaultPlan(
            [FaultRule(site="s", kind=FaultKind.DROP, probability=1.0,
                       max_injections=2)]
        )
        for _ in range(2):
            with pytest.raises(FaultInjected):
                plan.fire("s")
        plan.fire("s")  # budget spent: clean
        assert plan.injection_count(FaultKind.DROP) == 2

    def test_fnmatch_site_patterns(self):
        plan = FaultPlan(
            [FaultRule(site="store.put:*", kind=FaultKind.DROP,
                       probability=1.0)]
        )
        with pytest.raises(FaultInjected):
            plan.fire("store.put:polaris.lustre")
        plan.fire("store.get:polaris.lustre")  # no match: clean

    def test_injection_metrics(self):
        metrics = MetricsRegistry()
        plan = FaultPlan(
            [FaultRule(site="s", kind=FaultKind.STALL, at_ops=(0,))],
            metrics=metrics,
        )
        plan.fire("s")
        counter = metrics.counter(
            "resilience_faults_injected_total", site="s", kind="stall"
        )
        assert counter.value == 1

    def test_plan_dict_round_trip(self):
        plan = FaultPlan(
            [FaultRule(site="s", kind=FaultKind.DROP, probability=0.5)],
            seed=42,
        )
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.seed == 42
        assert clone.rules == plan.rules


# ---------------------------------------------------------------------------
# Arming the substrate hooks
# ---------------------------------------------------------------------------

class TestArming:
    def test_store_hooks_and_zero_overhead_default(self, tiny_tier):
        store = TierStore(tiny_tier)
        assert store.faults is None  # no plan armed: one attr, no work
        plan = FaultPlan(
            [FaultRule(site=f"store.put:{tiny_tier.name}",
                       kind=FaultKind.WRITE_FAIL, probability=1.0)]
        )
        plan.arm(stores=[store])
        with pytest.raises(StorageError):
            store.put("k", b"data")
        plan.disarm()
        assert store.faults is None
        store.put("k", b"data")  # clean after disarm

    def test_store_get_corruption_does_not_touch_stored_copy(self, tiny_tier):
        store = TierStore(tiny_tier)
        store.put("k", b"payload")
        plan = FaultPlan(
            [FaultRule(site="store.get:*", kind=FaultKind.CORRUPT,
                       at_ops=(0,))], seed=5
        )
        with plan.arm(stores=[store]):
            corrupted, _ = store.get("k")
            assert corrupted != b"payload"
            clean, _ = store.get("k")
            assert clean == b"payload"

    def test_stall_scales_store_cost(self, tiny_tier):
        store = TierStore(tiny_tier)
        baseline = store.put("k", b"data")
        plan = FaultPlan(
            [FaultRule(site="store.put:*", kind=FaultKind.STALL,
                       probability=1.0, stall_factor=10.0)]
        )
        with plan.arm(stores=[store]):
            stalled = store.put("k", b"data")
        assert stalled.total == pytest.approx(10.0 * baseline.total)

    def test_links_module_hook(self, tiny_link):
        plan = FaultPlan(
            [FaultRule(site=f"link.time:{tiny_link.name}",
                       kind=FaultKind.STALL, probability=1.0,
                       stall_factor=5.0)]
        )
        clean = tiny_link.transfer_time(1000)
        plan.arm(links_hook=True)
        try:
            assert tiny_link.transfer_time(1000) == pytest.approx(5.0 * clean)
        finally:
            plan.disarm()
        assert tiny_link.transfer_time(1000) == pytest.approx(clean)
        assert links._FAULT_HOOK is None

    def test_second_links_hook_rejected(self):
        first = FaultPlan([]).arm(links_hook=True)
        try:
            with pytest.raises(ConfigurationError):
                FaultPlan([]).arm(links_hook=True)
        finally:
            first.disarm()
