"""The delta path's carried CRCs: what is skipped, and that nothing
carried can outlive the bytes it was computed over.

``tests/core/test_delta.py`` pins the wire format and the bare
``encode_frame``/``decode_frame`` checks; this file covers the state the
:class:`DeltaManager` keeps between calls — the producer's retained
serializer pieces (shared with the base where unchanged, with their
CRCs) and the consumer-held base, an immutable table of segments with
their CRCs.  CRC-32 is the one checksum: no step calls BLAKE2b.
"""

import hashlib
import tracemalloc
import zlib
from types import SimpleNamespace

import numpy as np
import pytest

from repro import CaptureMode, TransferStrategy, Viper
from repro.core.transfer import delta as delta_mod
from repro.core.transfer.delta import (
    _HEADER,
    _OP,
    _OP_LITERAL,
    _OP_REUSE,
    DeltaConfig,
    DeltaManager,
    frame_info,
    is_delta_frame,
)
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
    """(tag, position, length) of every op in ``frame``."""
    pos = _HEADER.size
    for _ in range(frame_info(frame)["nops"]):
        tag, size = _OP.unpack_from(frame, pos)
        yield tag, pos, size
        pos += _OP.size + (size if tag == _OP_LITERAL else 0)


@pytest.fixture
def hashed(monkeypatch):
    """Counts the bytes CRC'd inside delta.py and dnn/serialization.py
    together, and every BLAKE2b hasher built anywhere."""
    seen = {"crc_bytes": 0, "blake2b": 0}
    real_blake2b = hashlib.blake2b

    def blake2b(*args, **kwargs):
        seen["blake2b"] += 1
        return real_blake2b(*args, **kwargs)

    class CountingZlib:
        @staticmethod
        def crc32(data, value=0):
            seen["crc_bytes"] += len(data)
            return zlib.crc32(data, value)

    monkeypatch.setattr(hashlib, "blake2b", blake2b)
    monkeypatch.setattr(delta_mod, "zlib", CountingZlib)
    monkeypatch.setattr(ser_mod, "zlib", CountingZlib)
    return seen


def literal_bytes(frame):
    return sum(n for tag, _, n in ops(frame) if tag == _OP_LITERAL)


def owners(table):
    """The distinct buffers a table's segments keep alive."""
    return list({id(view.obj): view.obj for view in table.views}.values())


def chain(mgr, *states):
    """Save and load every state in turn; the frames (None = shipped
    whole) and blobs, with the last load's result left as the held base."""
    frames, blobs = [], []
    for version, state in enumerate(states, 1):
        blob = SER.dumps(state)
        frame, _, _ = mgr.encode_for_save("m", version, state)
        loaded = blob if frame is None else mgr.decode_for_load("m", frame)
        assert bytes(loaded) == blob
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
        for version, state in ((1, v1), (2, v2)):
            blob = SER.dumps(state)
            mgr.encode_for_save("m", version, state)
            mgr.register_loaded("m", version, blob)
        hashed["crc_bytes"] = 0
        frame, stats, _ = mgr.encode_for_save("m", 3, v3)
        assert frame is not None and stats.chunks_reused > 0
        # Unchanged pieces carry their CRCs; the header's payload CRC and
        # the out-CRC are combined from them: only the changed payloads
        # and the header itself are read.
        changed = v3["t4"].nbytes + v3["t5"].nbytes
        assert hashed["crc_bytes"] == changed + V2_HEADER
        assert hashed["blake2b"] == 0
        assert frame_info(frame)["out_crc"] == zlib.crc32(SER.dumps(v3))

    def test_full_change_early_out_hashes_nothing_until_diffed(self, hashed):
        mgr = manager()
        v1 = make_state(2)
        v2 = {k: v + 1.0 for k, v in v1.items()}
        for version, state in ((1, v1), (2, v2)):
            frame, _, saved = mgr.encode_for_save("m", version, state)
            assert frame is None
            mgr.register_loaded("m", version, saved.blob())
        # v1 is CRC'd whole; v2 CRCs its changed payloads and the header
        # (the unchanged tensor headers carry their CRCs).
        v2_payloads = sum(a.nbytes for a in v2.values())
        assert hashed["crc_bytes"] == len(SER.dumps(v1)) + v2_payloads + V2_HEADER
        # Diffing against v2, which shipped whole, reads none of its bytes
        # but those the piece compare touches: no index pass over the base.
        v3 = touch(v2, "t0")
        hashed["crc_bytes"] = 0
        frame, _, _ = mgr.encode_for_save("m", 3, v3)
        assert frame is not None
        assert hashed["crc_bytes"] == v3["t0"].nbytes + V2_HEADER
        assert hashed["blake2b"] == 0
        assert bytes(mgr.decode_for_load("m", frame)) == SER.dumps(v3)

    def test_disabled_manager_touches_nothing(self):
        mgr = DeltaManager(DeltaConfig(enabled=False), serializer=SER)
        state = make_state(13)
        frame, stats, saved = mgr.encode_for_save("m", 1, state)
        assert frame is None and stats.bytes_on_wire == len(SER.dumps(state))
        assert saved.blob() == SER.dumps(state)
        # Nothing is retained or negotiated.
        assert mgr._produced == {} and mgr.full_blob("m", 1) is None

    @pytest.mark.parametrize("pipelined", [True, False], ids=["on", "off"])
    def test_delta_save_takes_no_dump_chunks_pass(self, pipelined):
        from repro.core.transfer.pipeline import PipelineConfig

        class Counting(ViperSerializer):
            passes = pieces = 0

            def dump_chunks(self, state):
                self.passes += 1
                return super().dump_chunks(state)

            def payload_pieces(self, state):
                self.pieces += 1
                return super().payload_pieces(state)

        ser = Counting()
        kw = dict(mode=CaptureMode.SYNC, strategy=TransferStrategy.HOST_TO_HOST)
        pipe = PipelineConfig(enabled=pipelined, chunk_bytes=512, lanes=2)
        delta = DeltaConfig(enabled=True, chunk_bytes=CHUNK)
        with Viper(serializer=ser, pipeline=pipe, delta=delta) as viper:
            v1 = make_state(11)
            for state in (v1, touch(v1, "t0")):
                before = ser.pieces
                res = viper.save_weights("m", state, **kw)
                # The manager serializes from the payload seam, once.
                assert ser.pieces == before + 1
                viper.load_weights("m")
            assert ser.passes == 0
            assert res.record.wire_bytes < res.record.nbytes  # a real frame
            entry = viper.handler.delta._produced["m"][res.version]
            assert entry.piece_lengths == [
                memoryview(p).nbytes for p in SER.dump_chunks(state)
            ]

    def test_retained_blob_is_one_immutable_object(self):
        mgr = manager()
        state = make_state(3)
        expected = SER.dumps(state)
        _, _, saved = mgr.encode_for_save("m", 1, state)
        kept = mgr.full_blob("m", 1)
        assert type(kept) is bytes and kept == expected
        assert saved.blob() is kept and mgr.full_blob("m", 1) is kept
        state["t2"][...] += 1.0  # the live arrays are not the retained bytes
        assert mgr.full_blob("m", 1) == expected


SYNC_HOST = dict(mode=CaptureMode.SYNC, strategy=TransferStrategy.HOST_TO_HOST)


@pytest.fixture
def sparse(hashed):
    """Steady-state sparse saves of a 6-tensor model through
    ``Viper.save_weights``, each loaded as the next base: the deployment,
    the base state ``v1`` (itself a delta save) and ``v2`` (``t4``
    touched), their producer entries, ``v2``'s save result, and what that
    save alone hashed."""
    with Viper(delta=DeltaConfig(enabled=True, chunk_bytes=CHUNK)) as viper:
        v0 = make_state(14, size=2000)
        v1 = touch(v0, "t1")
        for state in (v0, v1):
            viper.save_weights("m", state, **SYNC_HOST)
            viper.load_weights("m")
        v2 = touch(v1, "t4")
        hashed["crc_bytes"] = 0
        res = viper.save_weights("m", v2, **SYNC_HOST)
        produced = viper.handler.delta._produced["m"]
        yield SimpleNamespace(
            viper=viper, v1=v1, v2=v2, base=produced[2],
            entry=produced[res.version], res=res, counts=dict(hashed),
        )


class TestTensorKeyedSave:
    """Per sparse ``Viper.save_weights``: the work follows the tensors that
    changed, and every check still runs on real bytes."""

    def test_only_changed_pieces_are_crcd_copied_and_hashed(self, sparse):
        assert sparse.res.record.wire_bytes < sparse.res.record.nbytes
        changed = sparse.v2["t4"].nbytes
        assert sparse.counts["crc_bytes"] == changed + V2_HEADER
        assert sparse.counts["blake2b"] == 0
        # Copied: the pieces this entry does not share with its base.
        shared = {id(p) for p in sparse.base.pieces}
        copied = [p for p in sparse.entry.pieces if id(p) not in shared]
        assert sum(p.length for p in copied) == changed + V2_HEADER
        assert all(type(p.buf) is bytes for p in copied)
        # The full blob is never joined.
        assert sparse.entry._blob is None

    def test_unchanged_tensor_piece_is_the_base_object(self, sparse):
        for i, name in enumerate(sorted(sparse.v1)):
            # Piece 0 is the v2 header, 1 the tensor count, then a (header,
            # payload) pair per tensor in name order.
            payload = 3 + 2 * i
            same = sparse.entry.pieces[payload] is sparse.base.pieces[payload]
            assert same == (name != "t4"), name
            assert sparse.entry.pieces[payload - 1] is sparse.base.pieces[payload - 1]

    def test_no_full_size_copy_is_allocated(self):
        with Viper(delta=True) as viper:  # 64 KB chunks
            v1 = make_state(15, size=64_000)  # 6 x 256 KB
            v2 = touch(v1, "t1")
            for state in (v1, v2):
                viper.save_weights("m", state, **SYNC_HOST)
                viper.load_weights("m")
            v3 = touch(v2, "t4")
            tracemalloc.start()
            try:
                viper.save_weights("m", v3, **SYNC_HOST)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        # The t4 piece copy and the frame, one tensor each: well below one
        # copy of the six-tensor blob.
        assert peak < len(SER.dumps(v3)) / 2

    def test_async_capture_is_isolated_from_later_mutation(self, sparse):
        viper = sparse.viper
        v3 = touch(sparse.v2, "t0")
        expected = SER.dumps(v3)
        res = viper.save_weights(
            "m", v3, mode=CaptureMode.ASYNC,
            strategy=TransferStrategy.HOST_TO_HOST,
        )
        entry = viper.handler.delta._produced["m"][res.version]
        for array in v3.values():  # the trainer moves on at once
            array[...] = -7.0
        viper.drain()
        assert b"".join(bytes(p.view()) for p in entry.pieces) == expected
        staged, _ = viper.consumer_node.dram.get(res.record.path)
        assert is_delta_frame(staged)
        assert SER.dumps(viper.load_weights("m").state) == expected

    def test_same_name_and_shape_new_bytes_ship_as_a_literal(self, sparse):
        viper = sparse.viper
        staged, _ = viper.consumer_node.dram.get(sparse.res.record.path)
        literal = sum(n for tag, _, n in ops(staged) if tag == _OP_LITERAL)
        # Every byte of t4 and of the v2 header rides as a literal.
        assert literal == sparse.v2["t4"].nbytes + V2_HEADER
        assert SER.dumps(viper.load_weights("m").state) == SER.dumps(sparse.v2)

    def test_full_blob_is_the_serializer_output(self, sparse):
        full = sparse.viper.handler.delta.full_blob("m", sparse.res.version)
        assert full == SER.dumps(sparse.v2)
        assert zlib.crc32(full) == sparse.entry.crc


class TestConsumerMemo:
    def test_warm_decode_crcs_only_the_literals(self, hashed):
        mgr = manager()
        v1 = make_state(4)
        v2 = touch(v1, "t2")
        v3 = touch(v2, "t2")
        (_, f2), _ = chain(mgr, v1, v2)
        blob3 = SER.dumps(v3)
        f3, _, _ = mgr.encode_for_save("m", 3, v3)
        hashed["crc_bytes"] = 0
        out = mgr.decode_for_load("m", f3)
        # The base was reconstructed here: its segments carry the CRCs
        # checked then, and its runs end where this frame's do, so the
        # out-CRC is folded from them and only the literals are read.
        assert hashed["crc_bytes"] == literal_bytes(f3) == v3["t2"].nbytes + V2_HEADER
        assert hashed["blake2b"] == 0
        assert bytes(out) == blob3 and out.crc == zlib.crc32(blob3)
        assert f2 is not None and 0 < literal_bytes(f3) < len(blob3)

    def test_a_new_cut_reads_only_the_segment_it_cuts(self, hashed):
        mgr = manager()
        v1 = make_state(16)
        v2 = touch(v1, "t1")
        v3 = touch(v2, "t4")  # a tensor no run boundary has cut yet
        _, (_, blob2) = chain(mgr, v1, v2)
        f3, _, _ = mgr.encode_for_save("m", 3, v3)
        t4 = SER.dumps(v3).index(v3["t4"].tobytes())
        held = mgr._held_base["m"]
        i = max(i for i, start in enumerate(held.starts) if start <= t4)
        hashed["crc_bytes"] = 0
        mgr.decode_for_load("m", f3)
        # The segment holding t4 is read once, all but t4's old bytes.
        cut = len(held.views[i]) - v3["t4"].nbytes
        assert hashed["crc_bytes"] == literal_bytes(f3) + cut
        mgr.register_loaded("m", 3, mgr.decode_for_load("m", f3))
        # From then on the same tensor changing reads only the literals.
        f4, _, _ = mgr.encode_for_save("m", 4, touch(v3, "t4"))
        hashed["crc_bytes"] = 0
        mgr.decode_for_load("m", f4)
        assert hashed["crc_bytes"] == literal_bytes(f4)

    def test_warm_decode_and_load_crc_the_literals_and_the_header(self, hashed):
        mgr = manager()
        v1 = make_state(12)
        v2 = touch(v1, "t3")
        v3 = touch(v2, "t3")
        chain(mgr, v1, v2)
        blob3 = SER.dumps(v3)
        f3, _, _ = mgr.encode_for_save("m", 3, v3)
        hashed["crc_bytes"] = 0
        out = mgr.decode_for_load("m", f3)
        state = SER.loads(out, copy=False)
        # The reconstruction carries its verified out-CRC; the inner v2
        # check derives the payload CRC from it and re-reads only the
        # header.
        assert hashed["crc_bytes"] == literal_bytes(f3) + V2_HEADER
        assert SER.dumps(state) == blob3

    def test_cold_base_is_hashed_once_then_remembered(self, hashed):
        mgr = manager()
        v1 = make_state(5)
        blob1 = SER.dumps(v1)
        mgr.encode_for_save("m", 1, v1)
        mgr.register_loaded("m", 1, blob1)  # loaded whole: nothing known
        held = mgr._held_base["m"]
        assert held.crcs is None and held.crc is None
        v2 = touch(v1, "t0")
        f2, _, _ = mgr.encode_for_save("m", 2, v2)
        hashed["crc_bytes"] = 0
        mgr.decode_for_load("m", f2)
        assert hashed["crc_bytes"] == len(blob1) + literal_bytes(f2)
        # The verified decode left the same bytes held with their CRCs,
        # cut where the frame's runs cut them.
        learned = mgr._held_base["m"]
        assert learned is not held and learned.crc == zlib.crc32(blob1)
        assert owners(learned) == [blob1] and len(learned.views) > 1
        hashed["crc_bytes"] = 0
        mgr.decode_for_load("m", f2)  # e.g. a retried load
        assert hashed["crc_bytes"] == literal_bytes(f2)
        assert hashed["blake2b"] == 0

    def test_warm_decode_and_load_allocate_no_full_size_buffer(self):
        mgr = DeltaManager(DeltaConfig(enabled=True), serializer=SER)  # 64 KB
        v1 = make_state(17, size=64_000)  # 6 x 256 KB
        v2 = touch(v1, "t4")
        v3 = touch(v2, "t4")
        chain(mgr, v1, v2)
        f3, _, _ = mgr.encode_for_save("m", 3, v3)
        tracemalloc.start()
        try:
            state = SER.loads(mgr.decode_for_load("m", f3), copy=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The t4 literal copy and the segment table: well below one copy
        # of the six-tensor blob.
        assert peak < len(SER.dumps(v3)) / 2
        assert SER.dumps(state) == SER.dumps(v3)

    def test_held_base_keeps_no_chain_of_old_frames(self):
        mgr = manager()
        states = [make_state(18, size=2000)]
        for _ in range(20):
            states.append(touch(states[-1], "t2", "t5"))
        frames, blobs = chain(mgr, *states)
        assert all(frame is not None for frame in frames[1:])
        held = mgr._held_base["m"]
        changed = states[-1]["t2"].nbytes + states[-1]["t5"].nbytes
        # The blob loaded whole, plus this version's literals (the two
        # changed payloads and the v2 header): no frame, no old literal.
        kept = owners(held)
        assert [obj for obj in kept if len(obj) == len(blobs[0])] == [blobs[0]]
        assert sum(len(obj) for obj in kept) == len(blobs[0]) + changed + V2_HEADER
        assert not any(is_delta_frame(obj) for obj in kept)
        # The table stays flat: the v2 header, t2 and t5 literals and the
        # two base runs between them.
        assert len(held.views) == 5


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
        frame, _, _ = mgr.encode_for_save("m", version, newest)
        held = mgr._held_base["m"]
        return mgr, frame, blob, held

    @pytest.mark.parametrize("warm", [True, False])
    @pytest.mark.parametrize("target", ["literal", "reuse as wrong literal"])
    def test_corrupt_frame_raises_and_changes_nothing(self, warm, target):
        mgr, frame, blob, held = self._held_with_frame(warm)
        base = bytes(held)
        bad, write = frame, 0
        for tag, pos, size in ops(frame):
            if target == "literal" and tag == _OP_LITERAL:
                flipped = bytearray(frame)
                flipped[pos + _OP.size + size // 2] ^= 0x01
                bad = bytes(flipped)
                break
            if target == "reuse as wrong literal" and tag == _OP_REUSE:
                # The op now ships bytes that are not the base's.
                wrong = bytes(b ^ 0x01 for b in base[write : write + size])
                op = _OP.pack(_OP_LITERAL, size) + wrong
                bad = frame[:pos] + op + frame[pos + _OP.size :]
                break
            write += size
        assert bad != frame
        with pytest.raises(IntegrityError, match="blob CRC mismatch"):
            mgr.decode_for_load("m", bad)
        # The held base is immutable, and it is still the one held.
        assert mgr._held_base["m"] is held and bytes(held) == base
        # A failed decode cannot poison the next one.
        assert bytes(mgr.decode_for_load("m", frame)) == blob

    def test_held_base_cannot_be_reassigned(self):
        # The held bytes cannot change under their recorded CRCs: the
        # table and its segments are read-only.
        mgr, _, _, held = self._held_with_frame(warm=True)
        assert held.crcs is not None
        with pytest.raises(AttributeError):
            held.views = tuple(memoryview(bytes(v)) for v in held.views)
        with pytest.raises(AttributeError):
            held.crc = 0
        assert all(view.readonly for view in held.views)
        assert all(type(obj) is bytes for obj in owners(held))

    def test_bytes_registered_from_outside_a_decode_carry_no_crc_table(self):
        mgr, _, _, _ = self._held_with_frame(warm=True)
        blob = SER.dumps(make_state(6))
        mgr.register_loaded("m", 1, blob)
        held = mgr._held_base["m"]
        assert held.crcs is None and held.crc is None
        assert owners(held) == [blob] and len(held.views) == 1

    def test_out_crc_mismatch_commits_nothing(self):
        mgr, frame, blob, held = self._held_with_frame(warm=False)
        bad = bytearray(frame)
        bad[_HEADER.size - 8] ^= 0x01  # the header's out_crc field
        with pytest.raises(IntegrityError, match="CRC mismatch"):
            mgr.decode_for_load("m", bytes(bad))
        # The base's CRC was computed and matched, yet it is not on record.
        assert mgr._held_base["m"] is held and held.crcs is None


class TestHeldBaseLifetime:
    def test_register_loaded_and_forget_held_drop_the_table(self):
        mgr = manager()
        v1 = make_state(7)
        v2 = touch(v1, "t0")
        _, (blob1, blob2) = chain(mgr, v1, v2)
        held = mgr._held_base["m"]
        assert bytes(held) == blob2 and held.crc == zlib.crc32(blob2)
        # The same bytes registered as another object: nothing carries over.
        mgr.register_loaded("m", 2, bytes(bytearray(blob2)))
        fresh = mgr._held_base["m"]
        assert fresh is not held
        assert fresh.crc is None and fresh.crcs is None
        v3 = touch(v2, "t1")
        f3, _, _ = mgr.encode_for_save("m", 3, v3)
        mgr.decode_for_load("m", f3)
        mgr.forget_held("m")
        assert "m" not in mgr._held_base
        with pytest.raises(DeltaBaseError):
            mgr.decode_for_load("m", f3)

    def test_only_the_decoded_object_inherits_its_checks(self):
        mgr = manager()
        v1 = make_state(8)
        v2 = touch(v1, "t3")
        blob1, blob2 = SER.dumps(v1), SER.dumps(v2)
        mgr.encode_for_save("m", 1, v1)
        mgr.register_loaded("m", 1, blob1)
        f2, _, _ = mgr.encode_for_save("m", 2, v2)
        decoded = mgr.decode_for_load("m", f2)
        # An equal blob that is not the decode's own output (say, the
        # producer-retained fallback) starts with nothing known.
        mgr.register_loaded("m", 2, blob2)
        assert owners(mgr._held_base["m"]) == [blob2]
        assert mgr._held_base["m"].crc is None
        assert bytes(decoded) == blob2 and decoded.crc == zlib.crc32(blob2)
        # The decode's own output is adopted as is, CRCs and all.
        mgr.register_loaded("m", 2, decoded)
        assert mgr._held_base["m"] is decoded

    def test_same_length_different_base_is_a_base_error(self):
        mgr = manager()
        v1 = make_state(9)
        v2 = touch(v1, "t2")
        v3 = touch(v2, "t4")
        _, (_, blob2) = chain(mgr, v1, v2)
        blob3 = SER.dumps(v3)
        f3, _, _ = mgr.encode_for_save("m", 3, v3)
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
