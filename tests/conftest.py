"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.apps.registry import AppProfile, AppTiming
from repro.core.predictor.cilp import CILParams
from repro.substrates.cost import MB
from repro.substrates.memory.tiers import TierKind, TierSpec
from repro.substrates.network.links import LinkKind, LinkSpec


# Tier-1 draws the same hypothesis examples on every run (for a given
# test and hypothesis version), so a failure replays as it was seen.
# ``make fuzz`` (``--hypothesis-profile=fuzz``) draws afresh instead, and
# more examples where a test does not fix its own count.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("fuzz", max_examples=1000)
settings.load_profile("tier1")


# ---------------------------------------------------------------------------
# Synthetic loss curves (fast, deterministic stand-ins for real training)
# ---------------------------------------------------------------------------

def exp3_curve(n: int, a: float = 2.0, b: float = 0.002, c: float = 0.3,
               noise: float = 0.0, seed: int = 0) -> np.ndarray:
    """A textbook decaying loss curve: a*exp(-b*x)+c (+ optional noise)."""
    x = np.arange(1, n + 1, dtype=np.float64)
    y = a * np.exp(-b * x) + c
    if noise > 0:
        y = y + np.random.default_rng(seed).normal(0.0, noise, size=n)
    return y


@pytest.fixture
def small_params() -> CILParams:
    """Fast-arithmetic CIL parameters used across predictor tests."""
    return CILParams(t_train=0.1, t_p=0.05, t_c=0.05, t_infer=0.01)


# ---------------------------------------------------------------------------
# Tiny hardware specs (small numbers make capacity tests cheap)
# ---------------------------------------------------------------------------

@pytest.fixture
def tiny_tier() -> TierSpec:
    return TierSpec(
        name="test.dram",
        kind=TierKind.HOST_DRAM,
        capacity_bytes=1000,
        read_bw=100.0,
        write_bw=50.0,
        read_latency=0.01,
        write_latency=0.02,
    )


@pytest.fixture
def tiny_pfs() -> TierSpec:
    return TierSpec(
        name="test.pfs",
        kind=TierKind.PFS,
        capacity_bytes=10_000,
        read_bw=10.0,
        write_bw=5.0,
        read_latency=0.1,
        write_latency=0.2,
        per_object_overhead=0.05,
    )


@pytest.fixture
def tiny_link() -> LinkSpec:
    return LinkSpec(
        name="test.link",
        kind=LinkKind.LOOPBACK,
        bandwidth=100.0,
        latency=0.001,
        per_message_overhead=0.002,
    )


# ---------------------------------------------------------------------------
# A miniature app profile: tiny geometry for fast workflow tests
# ---------------------------------------------------------------------------

def _mini_data(n_train, n_test, seed):
    from repro.apps.datasets import make_expression_profiles

    return make_expression_profiles(n_train, n_test, n_classes=2, seed=seed)


@pytest.fixture
def mini_app() -> AppProfile:
    from repro.apps.candle import build_nt3

    return AppProfile(
        name="mini",
        display_name="Mini",
        build_model=build_nt3,
        make_data=_mini_data,
        loss_metric="cross_entropy",
        checkpoint_bytes=100 * MB,
        checkpoint_tensors=10,
        timing=AppTiming(t_train=0.05, t_infer=0.005),
        n_train=200,
        n_test=40,
        batch_size=20,
        epochs=5,
        warmup_epochs=1,
        total_inferences=2_000,
    )
