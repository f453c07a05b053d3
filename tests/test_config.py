"""Deployment configuration: ``Viper(...)`` keywords and the policy objects.

A deployment is described by ``Viper``'s keywords, with one nested policy
object per subsystem (``PipelineConfig``, ``DeltaConfig``, ``RetryPolicy``,
``BreakerConfig``).  These tests pin that the keywords reach the live
components and that a bad value fails at construction, before a
deployment exists.
"""

import dataclasses

import numpy as np
import pytest

from repro import CaptureMode, TransferStrategy, Viper
from repro.core.transfer.delta import DeltaConfig
from repro.core.transfer.pipeline import PipelineConfig
from repro.core.transfer.selector import TransferSelector
from repro.dnn.serialization import H5LikeSerializer, ViperSerializer
from repro.errors import ConfigurationError
from repro.resilience.breaker import BreakerConfig
from repro.resilience.retry import RetryPolicy
from repro.substrates.profiles import LAPTOP, POLARIS

STATE = {"w": np.arange(16, dtype=np.float32).reshape(4, 4)}

#: ``Viper`` keyword -> the policy object that carries its settings.
POLICIES = {
    "pipeline": PipelineConfig,
    "delta": DeltaConfig,
    "retry_policy": RetryPolicy,
    "breaker": BreakerConfig,
}


def viper_kwargs(spec):
    """``Viper`` keywords from ``spec``, a policy's settings given as a dict."""
    return {
        k: POLICIES[k](**v) if isinstance(v, dict) else v for k, v in spec.items()
    }


class TestViperConfig:
    def test_defaults(self):
        with Viper() as viper:
            assert viper.profile is POLARIS
            assert isinstance(viper.handler.serializer, ViperSerializer)
            assert viper.handler.selector.forced is None
            result = viper.save_weights("m", STATE)
            assert result.mode is CaptureMode.ASYNC
            viper.drain()

    def test_laptop_profile(self):
        with Viper(LAPTOP) as viper:
            assert viper.profile is LAPTOP
            assert viper.handler.profile is LAPTOP

    def test_h5_serializer(self):
        serializer = H5LikeSerializer()
        with Viper(serializer=serializer) as viper:
            assert viper.handler.serializer is serializer

    def test_sync_mode(self):
        with Viper() as viper:
            result = viper.save_weights("m", STATE, mode=CaptureMode.SYNC)
            assert result.mode is CaptureMode.SYNC

    def test_strategy_resolution(self):
        pinned = TransferSelector(forced=TransferStrategy("host"))
        with Viper(selector=pinned) as viper:
            result = viper.save_weights("m", STATE, mode=CaptureMode.SYNC)
            assert result.strategy is TransferStrategy.HOST_TO_HOST
            assert result.record.location == "host_dram"

    def test_roundtrip_via_dict(self):
        for policy in (
            DeltaConfig(enabled=True, chunk_bytes=4096),
            RetryPolicy(max_attempts=5, total_deadline=1.0),
            BreakerConfig(failure_threshold=2, reset_timeout=3.0),
        ):
            assert type(policy)(**dataclasses.asdict(policy)) == policy

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"recover": True},                      # requires a journal
            {"pipeline": {"lanes": 0}},
            {"pipeline": {"chunk_bytes": 0}},
            {"delta": {"chunk_bytes": 0}},
            {"retry_policy": {"max_attempts": 0}},
            {"retry_policy": {"attempt_deadline": 2.0, "total_deadline": 1.0}},
            {"breaker": {"failure_threshold": 0}},
            {"lease_ttl": 0.0},
        ],
    )
    def test_invalid_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            Viper(**viper_kwargs(kwargs))

    def test_unknown_keys_rejected(self):
        # There is no codec knob, on Viper or on DeltaConfig.
        with pytest.raises(TypeError):
            Viper(compression="zlib")
        with pytest.raises(TypeError):
            DeltaConfig(compression="zlib")

    def test_pipeline_defaults_off(self):
        with Viper() as viper:
            assert viper.handler.pipeline.enabled is False

    def test_pipeline_config_resolution(self):
        pipe = PipelineConfig(enabled=True, chunk_bytes=1024, lanes=4)
        with Viper(pipeline=pipe) as viper:
            assert viper.handler.pipeline is pipe

    def test_pipeline_roundtrip_via_dict(self):
        cfg = PipelineConfig(enabled=True, chunk_bytes=2048, lanes=3)
        assert PipelineConfig(**dataclasses.asdict(cfg)) == cfg

    @pytest.mark.parametrize(
        "kwargs",
        [{"chunk_bytes": 0}, {"chunk_bytes": -5}, {"lanes": 0}],
    )
    def test_pipeline_invalid_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            PipelineConfig(**kwargs)
