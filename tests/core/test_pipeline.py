"""Chunked transfer path: PipelineConfig, Chunker, BufferPool, serialize_pipelined."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, TransferError
from repro.dnn.serialization import ViperSerializer
from repro.core.transfer.pipeline import (
    BufferPool,
    Chunker,
    PipelineConfig,
    serialize_pipelined,
)

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


class TestChunker:
    def test_split_is_zero_copy_and_exact(self):
        data = bytes(RNG.integers(0, 256, size=1000, dtype=np.uint8))
        chunks = list(Chunker(64).split(data))
        assert all(isinstance(c, memoryview) for c in chunks)
        assert all(len(c) <= 64 for c in chunks)
        assert b"".join(chunks) == data

    def test_split_empty(self):
        assert b"".join(Chunker(8).split(b"")) == b""

    def test_split_pieces_respects_bound_without_copying(self):
        arr = RNG.standard_normal(1000).astype(np.float32)
        pieces = [b"header", memoryview(arr).cast("B"), b"", b"tail"]
        chunks = list(Chunker(512).split_pieces(pieces))
        assert all(len(c) <= 512 for c in chunks)
        joined = b"".join(chunks)
        assert joined == b"header" + arr.tobytes() + b"tail"
        # Mutating the source array shows through: the chunks are views.
        arr[0] += 1.0
        assert b"".join(chunks) != joined

    def test_invalid_chunk_bytes(self):
        with pytest.raises(ConfigurationError):
            Chunker(0)


class TestBufferPool:
    def test_acquire_release_reuses(self):
        pool = BufferPool(max_buffers=2)
        buf = pool.acquire(100)
        assert len(buf) >= 100
        pool.release(buf)
        again = pool.acquire(50)
        assert again is buf
        assert pool.reuses == 1

    def test_grows_instead_of_allocating_second(self):
        pool = BufferPool(max_buffers=2)
        buf = pool.acquire(10)
        pool.release(buf)
        bigger = pool.acquire(1000)
        assert len(bigger) >= 1000
        assert pool.outstanding == 1

    def test_exhaustion_raises(self):
        pool = BufferPool(max_buffers=1)
        pool.acquire(10)
        with pytest.raises(TransferError):
            pool.acquire(10)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            BufferPool().acquire(-1)

    def test_large_then_small_does_not_pin_peak(self):
        # Regression: one giant transfer must not pin its peak footprint
        # for the lifetime of the pool.
        pool = BufferPool(max_buffers=2, max_retain_bytes=4096)
        big = pool.acquire(1 << 20)
        pool.release(big)
        assert pool.shrinks == 1
        assert pool.retained_bytes == 4096
        small = pool.acquire(1024)
        assert small is big  # shrunk in place, still reused
        assert len(small) == 4096
        pool.release(small)
        assert pool.shrinks == 1  # within the cap: no second trim
        assert pool.retained_bytes == 4096

    def test_release_with_live_view_drops_buffer(self):
        # Regression: a live memoryview export pins the bytearray's
        # size, so the shrink-on-release cap must drop the buffer
        # instead of raising BufferError ("Existing exports of data").
        pool = BufferPool(max_buffers=2, max_retain_bytes=4096)
        buf = pool.acquire(1 << 20)
        view = memoryview(buf)
        pool.release(buf)  # must not raise
        assert pool.outstanding == 0
        assert pool.retained_bytes == 0  # dropped, not retained oversized
        assert len(view) == 1 << 20  # the caller's view stays intact
        view.release()
        assert pool.acquire(16) is not buf

    def test_retention_cap_disabled(self):
        pool = BufferPool(max_buffers=1, max_retain_bytes=None)
        buf = pool.acquire(1 << 20)
        pool.release(buf)
        assert pool.shrinks == 0
        assert pool.retained_bytes == 1 << 20

    def test_retention_cap_validated(self):
        with pytest.raises(ConfigurationError):
            BufferPool(max_retain_bytes=0)


class TestSerializePipelined:
    def test_matches_dumps_exactly(self):
        ser = ViperSerializer()
        state = sample_state()
        blob = serialize_pipelined(ser, state)
        assert type(blob) is bytes and blob == ser.dumps(state)
