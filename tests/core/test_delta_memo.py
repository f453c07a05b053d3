"""The delta path's carried digests and CRCs: what is skipped, and that
nothing carried can outlive the bytes it was computed over.

``tests/core/test_delta.py`` pins the wire format and the bare
``encode_frame``/``decode_frame`` checks; this file covers the state the
:class:`DeltaManager` keeps between calls — the producer's lazily built
chunk index with digests carried from the base, and the consumer-held
base's memoised CRC and verified-digest table.
"""

import zlib

import numpy as np
import pytest

from repro import CaptureMode, TransferStrategy, Viper
from repro.core.transfer import delta as delta_mod
from repro.core.transfer.delta import (
    _HEADER,
    _LITERAL,
    _OP_REUSE,
    _REUSE,
    DeltaConfig,
    DeltaManager,
    _HeldBase,
    _reconstruct,
    frame_info,
)
from repro.core.transfer.pipeline import serialize_pipelined
from repro.dnn import serialization as ser_mod
from repro.dnn.serialization import ViperSerializer
from repro.errors import DeltaBaseError, IntegrityError

CHUNK = 256
SER = ViperSerializer()
#: VIPR | u32 version | u32 payload CRC: the bytes a derived CRC re-reads.
V2_HEADER = 12


def make_state(seed, n=6, size=300):
    rng = np.random.default_rng(seed)
    return {f"t{i}": rng.standard_normal(size).astype(np.float32) for i in range(n)}


def touch(state, *names):
    out = dict(state)
    for name in names:
        out[name] = out[name] + 1.0
    return out


def manager(**kwargs):
    return DeltaManager(
        DeltaConfig(enabled=True, chunk_bytes=CHUNK, **kwargs), serializer=SER
    )


def chunks_of(state, *names):
    """Chunks the grid cuts the named tensors' payload pieces into."""
    return sum(-(-state[name].nbytes // CHUNK) for name in names)


def ops(frame):
    """(tag, position, payload length) of every op in ``frame``."""
    pos = _HEADER.size
    for _ in range(frame_info(frame)["nops"]):
        if frame[pos] == _OP_REUSE:
            yield _OP_REUSE, pos, 0
            pos += _REUSE.size
        else:
            enc_len = _LITERAL.unpack_from(frame, pos)[3]
            yield frame[pos], pos, enc_len
            pos += _LITERAL.size + enc_len


@pytest.fixture
def hashed(monkeypatch):
    """Counts the chunks digested inside delta.py and the bytes CRC'd
    inside delta.py and dnn/serialization.py together."""
    seen = {"digests": 0, "crc_bytes": 0}
    real_digest = delta_mod._digest

    def digest(chunk):
        seen["digests"] += 1
        return real_digest(chunk)

    class CountingZlib:
        @staticmethod
        def crc32(data, value=0):
            seen["crc_bytes"] += len(data)
            return zlib.crc32(data, value)

    monkeypatch.setattr(delta_mod, "_digest", digest)
    monkeypatch.setattr(delta_mod, "zlib", CountingZlib)
    monkeypatch.setattr(ser_mod, "zlib", CountingZlib)
    return seen


def chain(mgr, *states):
    """Save and load every state in turn; the frames (None = shipped
    whole) and blobs, with the last load's result left as the held base."""
    frames, blobs = [], []
    for version, state in enumerate(states, 1):
        blob = SER.dumps(state)
        frame, _ = mgr.encode_for_save("m", version, blob, state=state)
        loaded = blob if frame is None else mgr.decode_for_load("m", frame)
        assert loaded == blob
        mgr.register_loaded("m", version, loaded)
        frames.append(frame)
        blobs.append(blob)
    return frames, blobs


class TestProducerCarry:
    def test_sparse_save_hashes_only_changed_pieces(self, hashed):
        mgr = manager()
        v1 = make_state(1)
        v2 = touch(v1, "t1")
        v3 = touch(v2, "t4", "t5")
        total = len(list(delta_mod.chunk_bounds(
            [memoryview(p).nbytes for p in SER.dump_chunks(v1)], CHUNK
        )))
        for version, state in ((1, v1), (2, v2)):
            blob = SER.dumps(state)
            mgr.encode_for_save("m", version, blob, state=state)
            mgr.register_loaded("m", version, blob)
        # v1 shipped whole and unhashed; v2 built v1's index (every chunk)
        # and hashed its own changed pieces: t1's payload + the v2 header.
        assert hashed["digests"] == total + chunks_of(v2, "t1") + 1
        # As the handler saves: the piece grid comes with the blob.
        lengths = []
        blob = serialize_pipelined(SER, v3, piece_lengths=lengths)
        hashed["digests"] = hashed["crc_bytes"] = 0
        frame, stats = mgr.encode_for_save(
            "m", 3, blob, state=v3, piece_lengths=lengths
        )
        assert frame is not None and stats.chunks_reused > 0
        # v2's digests were kept from its own encode: only v3's changes.
        assert hashed["digests"] == chunks_of(v3, "t4", "t5") + 1
        # The out-CRC is derived from the payload CRC dumps just wrote
        # into the v2 header: only the header itself is read.
        assert hashed["crc_bytes"] == V2_HEADER
        assert frame_info(frame)["out_crc"] == zlib.crc32(blob)

    def test_full_change_early_out_hashes_nothing_until_diffed(self, hashed):
        mgr = manager()
        v1 = make_state(2)
        v2 = {k: v + 1.0 for k, v in v1.items()}
        grids = {1: [], 2: []}
        blobs = {
            v: serialize_pipelined(SER, s, piece_lengths=grids[v])
            for v, s in ((1, v1), (2, v2))
        }
        hashed["crc_bytes"] = 0
        for version, state in ((1, v1), (2, v2)):
            blob = blobs[version]
            frame, _ = mgr.encode_for_save(
                "m", version, blob, state=state, piece_lengths=grids[version]
            )
            assert frame is None
            mgr.register_loaded("m", version, blob)
        assert hashed == {"digests": 0, "crc_bytes": 0}
        assert mgr._produced["m"][2].index is None
        v3 = touch(v2, "t0")
        frame, _ = mgr.encode_for_save("m", 3, SER.dumps(v3), state=v3)
        assert frame is not None
        assert mgr._produced["m"][2].index is not None  # built on demand
        assert mgr.decode_for_load("m", frame) == SER.dumps(v3)

    def test_disabled_manager_touches_nothing(self):
        class Exploding:
            def dump_chunks(self, state):
                raise AssertionError("dump_chunks ran with delta disabled")

        mgr = DeltaManager(DeltaConfig(enabled=False), serializer=Exploding())
        frame, stats = mgr.encode_for_save("m", 1, bytearray(b"x" * 10), state={})
        assert frame is None and stats.bytes_on_wire == 10

    @pytest.mark.parametrize("pipelined", [True, False], ids=["on", "off"])
    def test_pipelined_save_takes_one_dump_chunks_pass(self, pipelined):
        from repro.core.transfer.pipeline import PipelineConfig

        class Counting(ViperSerializer):
            passes = 0

            def dump_chunks(self, state):
                self.passes += 1
                return super().dump_chunks(state)

        ser = Counting()
        kw = dict(mode=CaptureMode.SYNC, strategy=TransferStrategy.HOST_TO_HOST)
        pipe = PipelineConfig(enabled=pipelined, chunk_bytes=512, lanes=2)
        delta = DeltaConfig(enabled=True, chunk_bytes=CHUNK)
        with Viper(serializer=ser, pipeline=pipe, delta=delta) as viper:
            v1 = make_state(11)
            for state in (v1, touch(v1, "t0")):
                before = ser.passes
                res = viper.save_weights("m", state, **kw)
                assert ser.passes == before + 1
                viper.load_weights("m")
            assert res.record.wire_bytes < res.record.nbytes  # a real frame
            entry = viper.handler.delta._produced["m"][res.version]
            assert entry.piece_lengths == [
                memoryview(p).nbytes for p in SER.dump_chunks(state)
            ]

    def test_retained_blob_is_one_immutable_object(self):
        mgr = manager()
        state = make_state(3)
        mutable = bytearray(SER.dumps(state))
        mgr.encode_for_save("m", 1, mutable, state=state)
        kept = mgr.full_blob("m", 1)
        assert type(kept) is bytes and kept == mutable
        mutable[20] ^= 0xFF  # the caller's buffer is not the retained one
        assert mgr.full_blob("m", 1) == SER.dumps(state)
        frozen = SER.dumps(state)
        mgr.encode_for_save("m", 2, frozen, state=state)
        assert mgr.full_blob("m", 2) is frozen  # bytes are never copied


class TestConsumerMemo:
    def test_warm_decode_hashes_only_literals(self, hashed):
        mgr = manager()
        v1 = make_state(4)
        v2 = touch(v1, "t2")
        v3 = touch(v2, "t3")
        (_, f2), _ = chain(mgr, v1, v2)
        literals2 = sum(1 for tag, _, _ in ops(f2) if tag != _OP_REUSE)
        blob3 = SER.dumps(v3)
        f3, _ = mgr.encode_for_save("m", 3, blob3, state=v3)
        hashed["digests"] = hashed["crc_bytes"] = 0
        assert mgr.decode_for_load("m", f3) == blob3
        literals3 = sum(1 for tag, _, _ in ops(f3) if tag != _OP_REUSE)
        # The base was reconstructed here: its CRC is the out-CRC checked
        # then, its chunk digests are all on record.
        assert hashed["digests"] == literals3
        assert hashed["crc_bytes"] == len(blob3)
        assert literals2 > 0 and literals3 < frame_info(f3)["nops"]

    def test_warm_decode_and_load_crc_every_byte_once(self, hashed):
        mgr = manager()
        v1 = make_state(12)
        v2 = touch(v1, "t2")
        v3 = touch(v2, "t3")
        chain(mgr, v1, v2)
        blob3 = SER.dumps(v3)
        f3, _ = mgr.encode_for_save("m", 3, blob3, state=v3)
        hashed["crc_bytes"] = 0
        out = mgr.decode_for_load("m", f3)
        state = SER.loads(out, blob_crc=mgr.decoded_crc("m", out))
        # The out-CRC reads every reconstructed byte; the inner v2 check
        # derives the payload CRC from it and re-reads only the header.
        assert hashed["crc_bytes"] == len(blob3) + V2_HEADER
        assert SER.dumps(state) == blob3
        # Only the decode's own object carries the CRC.
        assert mgr.decoded_crc("m", bytes(bytearray(out))) is None
        mgr.register_loaded("m", 3, out)
        assert mgr.decoded_crc("m", out) is None

    def test_cold_base_is_hashed_once_then_remembered(self, hashed):
        mgr = manager()
        v1 = make_state(5)
        blob1 = SER.dumps(v1)
        mgr.encode_for_save("m", 1, blob1, state=v1)
        mgr.register_loaded("m", 1, blob1)  # loaded whole: nothing known
        held = mgr._held_blob["m"]
        assert held.crc is None and held.digests == {}
        v2 = touch(v1, "t0")
        blob2 = SER.dumps(v2)
        f2, _ = mgr.encode_for_save("m", 2, blob2, state=v2)
        reuse = sum(1 for tag, _, _ in ops(f2) if tag == _OP_REUSE)
        hashed["digests"] = hashed["crc_bytes"] = 0
        mgr.decode_for_load("m", f2)
        assert hashed["digests"] == frame_info(f2)["nops"]  # every op
        assert hashed["crc_bytes"] == len(blob1) + len(blob2)
        assert held.crc == zlib.crc32(blob1) and len(held.digests) == reuse
        hashed["digests"] = hashed["crc_bytes"] = 0
        mgr.decode_for_load("m", f2)  # e.g. a retried load
        assert hashed["digests"] == frame_info(f2)["nops"] - reuse
        assert hashed["crc_bytes"] == len(blob2)

    def test_unlisted_range_is_hashed_not_trusted(self):
        base = bytes(range(256)) * 2
        d_whole = delta_mod._digest(base[:256])
        # The table knows (0, 256); the op claims the same digest for
        # (0, 128), a range nobody verified.
        held = _HeldBase(base, zlib.crc32(base), {(0, 256): d_whole})
        out = base[:128]
        frame = _HEADER.pack(
            b"VPRD", 3, len(base), held.crc, len(out), zlib.crc32(out), 1
        ) + _REUSE.pack(_OP_REUSE, 0, 128, d_whole)
        with pytest.raises(IntegrityError, match="reused chunk digest"):
            _reconstruct(frame, held)
        assert held.digests == {(0, 256): d_whole}
        good = frame[: -_REUSE.size] + _REUSE.pack(
            _OP_REUSE, 0, 128, delta_mod._digest(out)
        )
        assert _reconstruct(good, held).blob == out
        assert held.digests[(0, 128)] == delta_mod._digest(out)  # now listed


class TestFailedDecodeLeavesNoTrace:
    def _held_with_frame(self, warm):
        mgr = manager()
        v1 = make_state(6)
        v2 = touch(v1, "t1")
        v3 = touch(v2, "t5")
        chain(mgr, *((v1, v2) if warm else (v1,)))
        newest = v3 if warm else v2
        version = 3 if warm else 2
        blob = SER.dumps(newest)
        frame, _ = mgr.encode_for_save("m", version, blob, state=newest)
        held = mgr._held_blob["m"]
        return mgr, frame, blob, held

    @pytest.mark.parametrize("warm", [True, False])
    @pytest.mark.parametrize("target", ["literal", "reuse digest"])
    def test_corrupt_frame_raises_and_changes_nothing(self, warm, target):
        mgr, frame, blob, held = self._held_with_frame(warm)
        before = (held.blob, held.crc, dict(held.digests))
        bad = bytearray(frame)
        for tag, pos, enc_len in ops(frame):
            if target == "literal" and tag != _OP_REUSE and enc_len:
                bad[pos + _LITERAL.size + enc_len // 2] ^= 0x01
                break
            if target == "reuse digest" and tag == _OP_REUSE:
                bad[pos + _REUSE.size - 1] ^= 0x01
                break
        assert bytes(bad) != frame
        with pytest.raises(IntegrityError):
            mgr.decode_for_load("m", bytes(bad))
        assert (held.blob, held.crc, held.digests) == before
        assert mgr._held_blob["m"] is held
        # A failed decode cannot poison the next one.
        assert mgr.decode_for_load("m", frame) == blob

    def test_out_crc_mismatch_commits_nothing(self):
        mgr, frame, blob, held = self._held_with_frame(warm=False)
        bad = bytearray(frame)
        bad[_HEADER.size - 8] ^= 0x01  # the header's out_crc field
        with pytest.raises(IntegrityError, match="CRC mismatch"):
            mgr.decode_for_load("m", bytes(bad))
        # Every reuse range did hash correctly, yet none is on record.
        assert held.crc is None and held.digests == {}
        assert "m" not in mgr._decoded


class TestHeldBaseLifetime:
    def test_register_loaded_and_forget_held_drop_the_table(self):
        mgr = manager()
        v1 = make_state(7)
        v2 = touch(v1, "t0")
        _, (blob1, blob2) = chain(mgr, v1, v2)
        held = mgr._held_blob["m"]
        assert held.blob == blob2 and held.crc == zlib.crc32(blob2)
        assert sum(n for _, n in held.digests) == len(blob2)  # every chunk
        # The same bytes registered as another object: nothing carries over.
        mgr.register_loaded("m", 2, bytes(bytearray(blob2)))
        fresh = mgr._held_blob["m"]
        assert fresh is not held
        assert fresh.crc is None and fresh.digests == {}
        v3 = touch(v2, "t1")
        f3, _ = mgr.encode_for_save("m", 3, SER.dumps(v3), state=v3)
        mgr.decode_for_load("m", f3)
        mgr.forget_held("m")
        assert "m" not in mgr._held_blob and "m" not in mgr._decoded
        with pytest.raises(DeltaBaseError):
            mgr.decode_for_load("m", f3)

    def test_only_the_decoded_object_inherits_its_checks(self):
        mgr = manager()
        v1 = make_state(8)
        v2 = touch(v1, "t3")
        blob1, blob2 = SER.dumps(v1), SER.dumps(v2)
        mgr.encode_for_save("m", 1, blob1, state=v1)
        mgr.register_loaded("m", 1, blob1)
        f2, _ = mgr.encode_for_save("m", 2, blob2, state=v2)
        decoded = mgr.decode_for_load("m", f2)
        # An equal blob that is not the decode's own output (say, the
        # producer-retained fallback) starts with nothing known.
        mgr.register_loaded("m", 2, blob2)
        assert mgr._held_blob["m"].blob is blob2
        assert mgr._held_blob["m"].digests == {}
        assert decoded == blob2 and "m" not in mgr._decoded

    def test_same_length_different_base_is_a_base_error(self):
        mgr = manager()
        v1 = make_state(9)
        v2 = touch(v1, "t2")
        v3 = touch(v2, "t4")
        _, (_, blob2) = chain(mgr, v1, v2)
        blob3 = SER.dumps(v3)
        f3, _ = mgr.encode_for_save("m", 3, blob3, state=v3)
        # The held v2 (CRC and table on record) is swapped for other bytes
        # of the same length, registered under the same version.
        imposter = SER.dumps(touch(v2, "t0"))
        assert len(imposter) == len(blob2) and imposter != blob2
        mgr.register_loaded("m", 2, imposter)
        with pytest.raises(DeltaBaseError):
            mgr.decode_for_load("m", f3)
        assert mgr.full_blob("m", 3) == blob3  # the fallback source

    def test_swapped_base_falls_back_to_monolithic_end_to_end(self):
        kw = dict(mode=CaptureMode.SYNC, strategy=TransferStrategy.HOST_TO_HOST)
        with Viper(delta=DeltaConfig(enabled=True, chunk_bytes=CHUNK)) as viper:
            v1 = make_state(10)
            v2 = touch(v1, "t1")
            v3 = touch(v2, "t2")
            for state in (v1, v2):
                viper.save_weights("m", state, **kw)
                viper.load_weights("m")
            viper.save_weights("m", v3, **kw)
            before = viper.handler.stats.snapshot().delta_fallbacks
            viper.handler.delta.register_loaded(
                "m", 2, SER.dumps(touch(v2, "t0"))
            )
            loaded = viper.load_weights("m")
            assert loaded.version == 3
            assert SER.dumps(loaded.state) == SER.dumps(v3)
            assert viper.handler.stats.snapshot().delta_fallbacks == before + 1
            # The fallback blob is the new base: the next update is a delta.
            v4 = touch(v3, "t3")
            res = viper.save_weights("m", v4, **kw)
            assert res.record.wire_bytes < res.record.nbytes
            assert SER.dumps(viper.load_weights("m").state) == SER.dumps(v4)
