"""Integrity: checksum verification, corruption detection, re-request.

Injected payload corruption must always be detected — a corrupted
checkpoint must never be deserialized into a served model — and detection
must trigger a re-request (same replica for transient corruption, the
next replica when a stored copy is permanently damaged).
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro import CaptureMode, FaultKind, FaultPlan, FaultRule, Viper
from repro.dnn.serialization import H5LikeSerializer, ViperSerializer
from repro.errors import IntegrityError, RetriesExhausted, StorageError

STATE = {
    "w": np.arange(512, dtype=np.float32).reshape(16, 32),
    "b": np.ones(16, dtype=np.float64),
}


class TestChecksumFormat:
    def test_round_trip(self):
        ser = ViperSerializer()
        blob = ser.dumps(STATE)
        out = ser.loads(blob)
        for key in STATE:
            np.testing.assert_array_equal(out[key], STATE[key])

    def test_dump_chunks_matches_dumps(self):
        ser = ViperSerializer()
        assert b"".join(ser.dump_chunks(STATE)) == ser.dumps(STATE)

    @pytest.mark.parametrize("copy", [True, False])
    def test_any_flipped_payload_byte_is_detected(self, copy):
        ser = ViperSerializer()
        blob = bytearray(ser.dumps(STATE))
        payload_start = 12  # VIPR | version | crc32
        for pos in range(payload_start, len(blob), 97):
            bad = bytearray(blob)
            bad[pos] ^= 0x01
            with pytest.raises(IntegrityError) as exc_info:
                ser.loads(bytes(bad), copy=copy)
            assert exc_info.value.expected != exc_info.value.actual

    def test_corrupt_checksum_field_is_detected(self):
        ser = ViperSerializer()
        blob = bytearray(ser.dumps(STATE))
        blob[8] ^= 0xFF
        with pytest.raises(IntegrityError):
            ser.loads(bytes(blob))

    def test_v1_blob_loads_unverified(self):
        ser = ViperSerializer()
        blob = ser.dumps(STATE)
        legacy = b"VIPR" + struct.pack("<I", 1) + blob[12:]
        out = ser.loads(legacy)
        np.testing.assert_array_equal(out["w"], STATE["w"])

    def test_unknown_version_rejected(self):
        ser = ViperSerializer()
        blob = bytearray(ser.dumps(STATE))
        struct.pack_into("<I", blob, 4, 99)
        with pytest.raises(StorageError, match="version"):
            ser.loads(bytes(blob))

    @pytest.mark.parametrize("cut", [4, 10, 13, 40, 200, 530, -200, -10, -1])
    @pytest.mark.parametrize("fmt", ["viper", "viper-v1", "h5py"])
    def test_truncated_blob_is_an_integrity_error(self, fmt, cut):
        # A format without a CRC (h5py-like, legacy v1) has no checksum to
        # catch a short read first: the parser's bounds checks must.
        if fmt == "h5py":
            ser, blob = H5LikeSerializer(), H5LikeSerializer().dumps(STATE)
        else:
            ser, blob = ViperSerializer(), ViperSerializer().dumps(STATE)
            if fmt == "viper-v1":
                blob = b"VIPR" + struct.pack("<I", 1) + blob[12:]
        with pytest.raises(IntegrityError):
            ser.loads(blob[:cut])

    def test_h5_baseline_remains_checksum_free(self):
        # The h5py-like baseline stays faithful to what h5py does: no
        # integrity envelope, corruption passes through undetected here.
        ser = H5LikeSerializer()
        blob = bytearray(ser.dumps(STATE))
        blob[-1] ^= 0x01
        state = ser.loads(bytes(blob))
        assert set(state) == set(STATE)


class TestEndToEndCorruption:
    def test_transient_read_corruption_is_retried(self):
        # Corrupt the first GPU read only: the re-request serves clean
        # bytes from the same replica.
        plan = FaultPlan(
            [FaultRule(site="store.get:*hbm*", kind=FaultKind.CORRUPT,
                       at_ops=(0,))],
            seed=7,
        )
        with Viper(fault_plan=plan) as viper:
            viper.save_weights("m", STATE, mode=CaptureMode.SYNC)
            loaded = viper.load_weights("m")
            snap = viper.handler.stats.snapshot()
            assert loaded.location == "gpu"
            np.testing.assert_array_equal(loaded.state["w"], STATE["w"])
            assert snap.corruptions == 1
            assert snap.retries == 1
            assert "retry.backoff" in loaded.cost.breakdown()

    def test_permanently_corrupt_replica_falls_back_to_pfs(self):
        # Corruption injected at PUT time damages the stored GPU copy for
        # good; every read retries, exhausts, and the load must fall back
        # to the durable PFS replica written by the history flusher.
        plan = FaultPlan(
            [FaultRule(site="store.put:*hbm*", kind=FaultKind.CORRUPT,
                       at_ops=(0,))],
            seed=7,
        )
        with Viper(fault_plan=plan, flush_history=True) as viper:
            viper.save_weights("m", STATE, mode=CaptureMode.SYNC)
            viper.drain()  # let the flusher mirror the blob to the PFS
            loaded = viper.load_weights("m")
            snap = viper.handler.stats.snapshot()
            assert loaded.location == "pfs"
            np.testing.assert_array_equal(loaded.state["w"], STATE["w"])
            assert snap.corruptions == viper.handler.retry_policy.max_attempts
            assert snap.fallbacks == 1

    def test_corruption_never_served(self):
        # Even when every replica is permanently corrupt, the consumer
        # gets a typed error — never a garbage model.
        plan = FaultPlan(
            [FaultRule(site="store.put:*", kind=FaultKind.CORRUPT,
                       probability=1.0)],
            seed=7,
        )
        with Viper(fault_plan=plan) as viper:
            viper.save_weights("m", STATE, mode=CaptureMode.SYNC)
            with pytest.raises(RetriesExhausted) as exc_info:
                viper.load_weights("m")
            assert isinstance(exc_info.value.__cause__, IntegrityError)
            snap = viper.handler.stats.snapshot()
            assert snap.corruptions == viper.handler.retry_policy.max_attempts

    def test_corruption_metrics(self):
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        plan = FaultPlan(
            [FaultRule(site="store.get:*hbm*", kind=FaultKind.CORRUPT,
                       at_ops=(0,))],
            seed=7,
        )
        with Viper(fault_plan=plan, metrics=metrics) as viper:
            viper.save_weights("m", STATE, mode=CaptureMode.SYNC)
            viper.load_weights("m")
        assert metrics.counter(
            "viper_corruptions_total", location="gpu"
        ).value == 1
        assert metrics.counter(
            "resilience_faults_injected_total",
            site="store.get:polaris.a100-hbm",
            kind="corrupt",
        ).value == 1

    def test_truncated_checksum_free_blob_is_a_rejected_swap(self):
        from repro import TransferStrategy
        from repro.dnn.layers import Dense
        from repro.dnn.models import Sequential

        def builder():
            return Sequential([Dense(16, name="d")], input_shape=(32,), seed=3)

        kw = dict(mode=CaptureMode.SYNC, strategy=TransferStrategy.HOST_TO_HOST)
        with Viper(serializer=H5LikeSerializer()) as viper:
            consumer = viper.consumer(model_builder=builder)
            v1 = builder().state_dict()
            viper.save_weights("m", v1, **kw)
            consumer.apply_update("m")
            res = viper.save_weights(
                "m", {k: v + 1.0 for k, v in v1.items()}, **kw
            )
            store = viper.consumer_node.dram
            blob, _ = store.get(res.record.path)
            store.put(res.record.path, blob[:-10])  # a short staged write
            with pytest.raises(RetriesExhausted) as info:
                consumer.apply_update("m")
            assert isinstance(info.value.__cause__, IntegrityError)
            snap = viper.handler.stats.snapshot()
            assert snap.corruptions == viper.handler.retry_policy.max_attempts
            assert snap.swaps_rejected == 1
            assert consumer.current_version == 1
            served = consumer.current_model().state_dict()
            for key in v1:
                np.testing.assert_array_equal(served[key], v1[key])

    def test_pipelined_zero_copy_load_verifies(self):
        from repro.core.transfer.pipeline import PipelineConfig

        plan = FaultPlan(
            [FaultRule(site="store.get:*hbm*", kind=FaultKind.CORRUPT,
                       at_ops=(0,))],
            seed=7,
        )
        pipeline = PipelineConfig(enabled=True)
        with Viper(fault_plan=plan, pipeline=pipeline) as viper:
            viper.save_weights("m", STATE, mode=CaptureMode.SYNC)
            loaded = viper.load_weights("m")
            # Zero-copy consumers get read-only views — and still only
            # after the checksum over the whole buffer passed.
            assert not loaded.state["w"].flags.writeable
            np.testing.assert_array_equal(loaded.state["w"], STATE["w"])
            assert viper.handler.stats.snapshot().corruptions == 1
