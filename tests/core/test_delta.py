"""Delta wire path: chunk grid, frame encode/decode, manager negotiation."""

import dataclasses
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ConfigurationError,
    DeltaBaseError,
    IntegrityError,
    StorageError,
)
from repro.dnn.serialization import ViperSerializer
from repro.core.transfer.delta import (
    _HEADER,
    _OP,
    _OP_LITERAL,
    _OP_REUSE,
    DeltaConfig,
    DeltaManager,
    DeltaStats,
    CACHE_VERSIONS,
    chunk_bounds,
    decode_frame,
    encode_frame,
    frame_info,
    is_delta_frame,
)

CHUNK = 256


def make_state(seed, n=4, shape=(32, 16)):
    rng = np.random.default_rng(seed)
    return {
        f"t{i}": rng.standard_normal(shape).astype(np.float32)
        for i in range(n)
    }


def encode_against(serializer, base_state, new_state, chunk=CHUNK):
    base_blob = serializer.dumps(base_state)
    frame, stats = encode_frame(base_blob, serializer.dump_chunks(new_state), chunk)
    return base_blob, frame, stats


def literal_ops(frame):
    """Position of every literal op in ``frame``, in order."""
    pos = _HEADER.size
    for _ in range(frame_info(frame)["nops"]):
        tag, size = _OP.unpack_from(frame, pos)
        if tag == _OP_LITERAL:
            yield pos
        pos += _OP.size + (size if tag == _OP_LITERAL else 0)


def rewritten(seed, n=4, shape=(32, 16)):
    """A base and a same-shaped state whose every payload byte differs:
    its frame is mostly literal ops."""
    ser = ViperSerializer()
    base, new = make_state(seed, n, shape), make_state(seed + 1000, n, shape)
    base_blob, frame, stats = encode_against(ser, base, new)
    return base_blob, frame, stats, new


class TestChunkBounds:
    def test_grid_restarts_at_piece_boundaries(self):
        assert chunk_bounds([10, 5], 4) == [
            (0, 4), (4, 4), (8, 2), (10, 4), (14, 1)
        ]

    def test_empty_pieces_skipped(self):
        assert chunk_bounds([0, 3, 0], 4) == [(0, 3)]

    def test_exact_multiple(self):
        assert chunk_bounds([8], 4) == [(0, 4), (4, 4)]


class TestFrameCodec:
    def test_roundtrip_partial_change(self):
        ser = ViperSerializer()
        base = make_state(1)
        new = {k: v.copy() for k, v in base.items()}
        new["t0"] = new["t0"] + 1.0
        base_blob, frame, stats = encode_against(ser, base, new)
        assert is_delta_frame(frame)
        assert decode_frame(frame, base_blob) == ser.dumps(new)
        assert stats.mode == "delta"
        assert stats.chunks_reused > 0
        assert stats.bytes_on_wire == len(frame) < stats.bytes_total

    def test_frame_is_cut_along_the_chunk_bounds_grid(self):
        # A serializer-shaped iovec: a short header, a tensor payload
        # larger than one chunk (a float32 view, not bytes), an empty
        # piece and a tail.
        arr = np.arange(200, dtype=np.float32)  # 800 B: 3 full chunks + 32 B
        pieces = [b"head", memoryview(arr), b"", b"tail"]
        lengths = [memoryview(p).nbytes for p in pieces]
        # The base shares every chunk but the payload's last.
        base_arr = arr.copy()
        base_arr[-1] = -1.0
        base_blob = b"head" + base_arr.tobytes() + b"tail"
        frame, stats = encode_frame(base_blob, pieces, CHUNK)
        assert stats.chunks_total == len(chunk_bounds(lengths, CHUNK))
        assert stats.chunks_reused > 0
        assert stats.chunks_reused == stats.chunks_total - 1
        assert decode_frame(frame, base_blob) == b"".join(pieces)

    def test_zero_change_reuses_everything(self):
        ser = ViperSerializer()
        base = make_state(2)
        base_blob, frame, stats = encode_against(ser, base, base)
        assert stats.chunks_reused == stats.chunks_total
        assert stats.bytes_reused == stats.bytes_total
        assert decode_frame(frame, base_blob) == base_blob

    def test_literals_ship_raw(self):
        # A v4 op is a tag and a length, nothing else: the frame is
        # exactly the header, 9 B per op and the literal bytes themselves.
        base_blob, frame, stats, new = rewritten(4, n=2)
        nlit = 0
        for pos in literal_ops(frame):
            tag, size = _OP.unpack_from(frame, pos)
            chunk = frame[pos + _OP.size : pos + _OP.size + size]
            assert tag == _OP_LITERAL and chunk in ViperSerializer().dumps(new)
            nlit += 1
        assert nlit == stats.chunks_total - stats.chunks_reused > 0
        assert _OP.size == 9
        assert len(frame) == (
            _HEADER.size + stats.chunks_total * _OP.size
            + stats.bytes_total - stats.bytes_reused
        )
        assert decode_frame(frame, base_blob) == ViperSerializer().dumps(new)

    def test_reuse_is_positional(self):
        # A chunk equal to base bytes at another offset is a literal: the
        # frame never addresses the base by content.
        base_blob = b"A" * CHUNK + b"B" * CHUNK
        frame, stats = encode_frame(base_blob, [b"B" * CHUNK, b"B" * CHUNK], CHUNK)
        assert (stats.chunks_total, stats.chunks_reused) == (2, 1)
        first = _HEADER.size
        second = first + _OP.size + CHUNK
        assert _OP.unpack_from(frame, first) == (_OP_LITERAL, CHUNK)
        assert _OP.unpack_from(frame, second) == (_OP_REUSE, CHUNK)
        assert len(frame) == second + _OP.size
        assert decode_frame(frame, base_blob) == b"B" * 2 * CHUNK

    def test_bytes_after_the_last_op_are_rejected(self):
        # Regression: a frame with bytes past its last op used to decode
        # to the right blob, the trailing bytes silently ignored.
        base_blob, frame, _, new = rewritten(15)
        assert decode_frame(frame, base_blob) == ViperSerializer().dumps(new)
        with pytest.raises(IntegrityError, match="follow the last"):
            decode_frame(frame + b"GARBAGE" * 100, base_blob)
        with pytest.raises(IntegrityError, match="follow the last"):
            decode_frame(frame + b"\x00", base_blob)

    def test_frame_info_rejects_bad_magic(self):
        with pytest.raises(StorageError):
            frame_info(b"NOPE" + b"\x00" * 64)
        with pytest.raises(StorageError):
            frame_info(b"VP")  # truncated before the magic completes

    def test_frame_info_rejects_unknown_version(self):
        # The magic matched, so this is a frame and a bad header is
        # corruption (retried, counted), not "some other blob".
        ser = ViperSerializer()
        base = make_state(5)
        _, frame, _ = encode_against(ser, base, base)
        bad = bytearray(frame)
        bad[4] = 99
        with pytest.raises(IntegrityError):
            frame_info(bytes(bad))
        with pytest.raises(IntegrityError):
            frame_info(frame[: _HEADER.size - 1])

    def test_v3_frame_is_rejected(self):
        # Frames never reach the PFS or the journal: a v3 frame is not
        # migrated, it is an unsupported version like any other.
        ser = ViperSerializer()
        base_blob, frame, _ = encode_against(ser, make_state(5), make_state(5))
        v3 = bytearray(frame)
        v3[4:8] = (3).to_bytes(4, "little")
        with pytest.raises(IntegrityError, match="version 3"):
            decode_frame(bytes(v3), base_blob)

    def test_v2_blob_is_not_a_frame(self):
        ser = ViperSerializer()
        assert not is_delta_frame(ser.dumps(make_state(6)))

    def test_missing_base_raises_base_error(self):
        ser = ViperSerializer()
        base = make_state(7)
        _, frame, _ = encode_against(ser, base, base)
        with pytest.raises(DeltaBaseError):
            decode_frame(frame, None)

    def test_mismatched_base_raises_base_error(self):
        ser = ViperSerializer()
        base = make_state(8)
        _, frame, _ = encode_against(ser, base, base)
        with pytest.raises(DeltaBaseError):
            decode_frame(frame, ser.dumps(make_state(9)))

    def test_corrupt_literal_raises_integrity_error(self):
        base_blob, frame, _, _ = rewritten(10)
        bad = bytearray(frame)
        bad[next(literal_ops(frame)) + _OP.size] ^= 0xFF  # payload byte
        with pytest.raises(IntegrityError):
            decode_frame(bytes(bad), base_blob)

    def test_truncated_frame_raises_integrity_error(self):
        base_blob, frame, _, _ = rewritten(11)
        with pytest.raises(IntegrityError):
            decode_frame(frame[: len(frame) // 2], base_blob)

    def test_truncated_literal_op_header_raises_integrity_error(self):
        # Regression: cutting the frame mid-op-header used to escape as
        # struct.error instead of IntegrityError.
        base_blob, frame, _, _ = rewritten(13)
        pos = next(literal_ops(frame))
        with pytest.raises(IntegrityError):
            decode_frame(frame[: pos + 1], base_blob)

    def test_truncated_reuse_op_header_raises_integrity_error(self):
        ser = ViperSerializer()
        base = make_state(14)
        base_blob, frame, _ = encode_against(ser, base, base)
        with pytest.raises(IntegrityError):
            decode_frame(frame[: _HEADER.size + 1], base_blob)


#: A 64-byte base and the frames crafted against it below.
BASE = bytes(range(64))


def crafted(ops, *, out=None, version=4, nops=None, tail=b"", magic=b"VPRD"):
    """A frame over :data:`BASE` whose header is right for ``ops``
    (``(tag, length, literal bytes)`` triples) unless overridden: the
    out-CRC is that of the bytes the ops would write, so a decoder
    missing the check under test would not fail for another reason."""
    body, written = b"", b""
    for tag, size, data in ops:
        body += _OP.pack(tag, size) + data
        written += BASE[len(written) : len(written) + size] if tag == _OP_REUSE else data
    out_len = len(written) if out is None else out
    header = _HEADER.pack(
        magic, version, len(BASE), zlib.crc32(BASE), out_len,
        zlib.crc32(written), len(ops) if nops is None else nops,
    )
    return header + body + tail


LIT = (_OP_LITERAL, 4, b"\xaa" * 4)


@pytest.mark.parametrize(
    "frame, error",
    [
        pytest.param(crafted([LIT], magic=b"NOPE"), StorageError, id="bad magic"),
        pytest.param(crafted([LIT])[: _HEADER.size - 1], IntegrityError,
                     id="short header"),
        pytest.param(crafted([LIT], version=3), IntegrityError, id="v3"),
        pytest.param(crafted([LIT], version=99), IntegrityError,
                     id="unknown version"),
        pytest.param(crafted([LIT], nops=2), IntegrityError, id="truncated ops"),
        pytest.param(crafted([LIT])[:-1], IntegrityError, id="truncated literal"),
        pytest.param(crafted([(7, 0, b""), LIT]), IntegrityError, id="unknown tag"),
        pytest.param(crafted([(_OP_REUSE, 8, b""), LIT], out=10), IntegrityError,
                     id="declared length overflow"),
        pytest.param(crafted([(_OP_REUSE, 8, b""), LIT], out=16), IntegrityError,
                     id="short reconstruction"),
        pytest.param(crafted([LIT], tail=b"\x00"), IntegrityError,
                     id="bytes after the last op"),
        pytest.param(crafted([LIT, (_OP_REUSE, len(BASE), b"")]), DeltaBaseError,
                     id="reuse past the held base"),
    ],
)
def test_each_decoder_check_raises_its_own_error(frame, error):
    # Each frame trips exactly one check; the exact class decides what the
    # handler does (not a frame: no retry; corrupt: count and retry; base
    # mismatch: fall back to the monolithic blob).
    with pytest.raises(error) as info:
        decode_frame(frame, BASE)
    assert type(info.value) is error
    # The same ops, well formed, do reconstruct.
    good = crafted([LIT, (_OP_REUSE, len(BASE) - 4, b"")])
    assert decode_frame(good, BASE) == b"\xaa" * 4 + BASE[4:]


class TestDeltaConfig:
    def test_defaults_off(self):
        cfg = DeltaConfig()
        assert not cfg.enabled
        fields = [f.name for f in dataclasses.fields(cfg)]
        assert fields == ["enabled", "chunk_bytes"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(chunk_bytes=0),
            dict(chunk_bytes=-1),
            # No longer knobs: module constants, or gone with the codec.
            dict(full_change_threshold=0.9),
            dict(cache_versions=4),
            dict(compression="none"),
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises((ConfigurationError, TypeError)):
            DeltaConfig(**kwargs)


class TestDeltaStats:
    def test_ratios(self):
        stats = DeltaStats(
            mode="delta", bytes_total=100, bytes_on_wire=25,
            bytes_reused=80, chunks_total=10, chunks_reused=8,
        )
        assert stats.dedup_hit_ratio == 0.8
        assert stats.wire_fraction == 0.25

    def test_empty_is_neutral(self):
        stats = DeltaStats(mode="monolithic", bytes_total=0, bytes_on_wire=0)
        assert stats.dedup_hit_ratio == 0.0
        assert stats.wire_fraction == 1.0


class TestDeltaManager:
    def _manager(self, **kwargs):
        cfg = DeltaConfig(enabled=True, chunk_bytes=CHUNK, **kwargs)
        return DeltaManager(cfg, serializer=ViperSerializer())

    def test_disabled_always_monolithic(self):
        mgr = DeltaManager(DeltaConfig(enabled=False))
        state = make_state(20)
        blob = ViperSerializer().dumps(state)
        frame, stats, saved = mgr.encode_for_save("m", 1, state)
        assert frame is None and stats.mode == "monolithic"
        assert stats.bytes_on_wire == len(blob) and saved.blob() == blob

    def test_no_base_monolithic(self):
        mgr = self._manager()
        state = make_state(21)
        blob = ViperSerializer().dumps(state)
        frame, stats, _ = mgr.encode_for_save("m", 1, state)
        assert frame is None and stats.mode == "monolithic"

    def test_delta_after_consumer_registers(self):
        ser = ViperSerializer()
        mgr = self._manager()
        v1 = make_state(22)
        b1 = ser.dumps(v1)
        mgr.encode_for_save("m", 1, v1)
        mgr.register_loaded("m", 1, b1)
        assert mgr.held_version("m") == 1
        v2 = {k: v.copy() for k, v in v1.items()}
        v2["t0"] = v2["t0"] + 1.0
        b2 = ser.dumps(v2)
        frame, stats, _ = mgr.encode_for_save("m", 2, v2)
        assert frame is not None and stats.mode == "delta"
        assert len(frame) < len(b2)
        assert bytes(mgr.decode_for_load("m", frame)) == b2

    def test_save_frame_equals_the_bare_encoder(self):
        # One positional compare: the frame a save ships is the frame
        # encode_frame cuts from the same base and state.
        ser = ViperSerializer()
        mgr = self._manager()
        v1 = make_state(26)
        b1 = ser.dumps(v1)
        mgr.encode_for_save("m", 1, v1)
        mgr.register_loaded("m", 1, b1)
        v2 = {k: v.copy() for k, v in v1.items()}
        v2["t1"][:2] += 1.0  # only the head chunk of t1 changes
        v2["t3"] = v2["t3"] * 2.0
        frame, stats, _ = mgr.encode_for_save("m", 2, v2)
        bare, bare_stats = encode_frame(b1, ser.dump_chunks(v2), CHUNK)
        assert frame == bare and stats == bare_stats
        assert 0 < stats.chunks_reused < stats.chunks_total

    def test_full_change_early_out(self):
        # The frame would not be smaller than the blob: shipped whole.
        ser = ViperSerializer()
        mgr = self._manager()
        v1 = make_state(23)
        b1 = ser.dumps(v1)
        mgr.encode_for_save("m", 1, v1)
        mgr.register_loaded("m", 1, b1)
        v2 = {k: v + 1.0 for k, v in v1.items()}  # every tensor changed
        frame, stats, _ = mgr.encode_for_save("m", 2, v2)
        assert frame is None and stats.mode == "monolithic"

    def test_forget_held_forces_base_error_then_fallback(self):
        ser = ViperSerializer()
        mgr = self._manager()
        v1 = make_state(24)
        b1 = ser.dumps(v1)
        mgr.encode_for_save("m", 1, v1)
        mgr.register_loaded("m", 1, b1)
        v2 = {k: v.copy() for k, v in v1.items()}
        v2["t1"] = v2["t1"] * 2.0
        b2 = ser.dumps(v2)
        frame, _, _ = mgr.encode_for_save("m", 2, v2)
        assert frame is not None
        mgr.forget_held("m")  # the consumer restarted
        with pytest.raises(DeltaBaseError):
            mgr.decode_for_load("m", frame)
        assert mgr.full_blob("m", 2) == b2  # producer-retained fallback

    def test_cache_eviction_bounds_retention(self):
        ser = ViperSerializer()
        mgr = self._manager()
        state = make_state(25)
        last = CACHE_VERSIONS + 2
        for v in range(1, last + 1):
            mgr.encode_for_save("m", v, state)
        assert mgr.full_blob("m", 1) is None
        assert mgr.full_blob("m", 2) is None
        for v in range(3, last + 1):  # the newest CACHE_VERSIONS survive
            assert mgr.full_blob("m", v) is not None

    def test_remember_saved_enables_later_diff(self):
        # A direct-PFS save ships monolithic but still seeds the cache.
        ser = ViperSerializer()
        mgr = self._manager()
        v1 = make_state(26)
        b1 = ser.dumps(v1)
        mgr.remember_saved("m", 1, v1)
        mgr.register_loaded("m", 1, b1)
        v2 = {k: v.copy() for k, v in v1.items()}
        v2["t2"] = v2["t2"] + 0.5
        frame, stats, _ = mgr.encode_for_save("m", 2, v2)
        assert frame is not None and stats.chunks_reused > 0


# ---------------------------------------------------------------------------
# Property tests: reconstruct(base, recipe) == original, for any mutation.
# ---------------------------------------------------------------------------
class TestDeltaProperties:
    @given(
        n=st.integers(1, 6),
        changed=st.sets(st.integers(0, 5)),
        seed=st.integers(0, 2**16),
        chunk=st.sampled_from([64, 256, 4096]),
    )
    @settings(max_examples=40, deadline=None)
    def test_reconstruct_equals_original(self, n, changed, seed, chunk):
        # Covers zero-change (empty set), partial, and full mutation.
        ser = ViperSerializer()
        base = make_state(seed, n=n, shape=(8, 8))
        new = {k: v.copy() for k, v in base.items()}
        for i in changed:
            if i < n:
                new[f"t{i}"] = new[f"t{i}"] + float(i + 1)
        base_blob, frame, stats = encode_against(ser, base, new, chunk=chunk)
        assert decode_frame(frame, base_blob) == ser.dumps(new)
        if not {i for i in changed if i < n}:
            assert stats.chunks_reused == stats.chunks_total

    @given(
        seed=st.integers(0, 2**16),
        dtype=st.sampled_from(["float32", "float64", "int32", "uint8"]),
        rows=st.integers(1, 16),
        cols=st.integers(1, 16),
    )
    @settings(max_examples=30, deadline=None)
    def test_dtype_and_shape_changes_reconstruct(self, seed, dtype, rows, cols):
        # A layer swapped out between versions: its dtype and shape both
        # change, shifting every downstream piece boundary.
        ser = ViperSerializer()
        base = make_state(seed, n=3, shape=(8, 8))
        rng = np.random.default_rng(seed + 1)
        new = {k: v.copy() for k, v in base.items()}
        new["t1"] = (rng.standard_normal((rows, cols)) * 10).astype(dtype)
        base_blob, frame, _ = encode_against(ser, base, new)
        out = decode_frame(frame, base_blob)
        assert out == ser.dumps(new)
        back = ser.loads(out)
        assert back["t1"].dtype == np.dtype(dtype)
        assert back["t1"].shape == (rows, cols)

    @given(seed=st.integers(0, 2**16), burn=st.integers(0, 2**20))
    @settings(max_examples=30, deadline=None)
    def test_corrupt_literal_never_reconstructs(self, seed, burn):
        # Flip any byte of the first literal's payload: the out-CRC must
        # catch it — corrupt bytes never come back as a valid blob.
        base_blob, frame, _, _ = rewritten(seed, n=2, shape=(8, 8))
        pos = next(literal_ops(frame))
        size = _OP.unpack_from(frame, pos)[1]
        bad = bytearray(frame)
        bad[pos + _OP.size + (burn % size)] ^= 0xA5
        with pytest.raises(IntegrityError):
            decode_frame(bytes(bad), base_blob)
