"""Chunked transfer path: PipelineConfig and serialize_pipelined."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.dnn.serialization import ViperSerializer
from repro.core.transfer.pipeline import PipelineConfig, serialize_pipelined

RNG = np.random.default_rng(7)


def sample_state():
    return {
        "w": RNG.standard_normal((64, 32)).astype(np.float32),
        "b": RNG.standard_normal(32).astype(np.float32),
    }


class TestPipelineConfig:
    def test_defaults_off(self):
        cfg = PipelineConfig()
        assert not cfg.enabled

    def test_nchunks(self):
        cfg = PipelineConfig(chunk_bytes=100)
        assert cfg.nchunks(0) == 1
        assert cfg.nchunks(1) == 1
        assert cfg.nchunks(100) == 1
        assert cfg.nchunks(101) == 2
        assert cfg.nchunks(1000) == 10

    @pytest.mark.parametrize("kwargs", [{"chunk_bytes": 0}, {"lanes": 0}])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            PipelineConfig(**kwargs)


class TestSerializePipelined:
    def test_matches_dumps_exactly(self):
        ser = ViperSerializer()
        state = sample_state()
        blob = serialize_pipelined(ser, state)
        assert type(blob) is bytes and blob == ser.dumps(state)
