"""End-to-end delta transfer through the Viper facade.

The wire-level unit tests live in tests/core/test_delta.py; here the
whole stack runs — serialize, negotiate, frame, stage, fetch,
reconstruct, verify, swap — and the assertions are about what a
deployment observes: fewer bytes on the wire, bit-exact served weights,
and graceful degradation to the monolithic path when the delta
machinery loses its base.
"""

import numpy as np
import pytest

from repro import CaptureMode, TransferStrategy, Viper


def fleet_state(seed=0, n=8, shape=(64, 32)):
    rng = np.random.default_rng(seed)
    return {
        f"layer{i}": rng.standard_normal(shape).astype(np.float32)
        for i in range(n)
    }


def perturb(state, names, scale=1.0):
    out = {k: v.copy() for k, v in state.items()}
    for name in names:
        out[name] = out[name] + scale
    return out


class TestDeltaEndToEnd:
    def test_partial_update_ships_fraction_of_bytes(self):
        with Viper(delta=True) as viper:
            v1 = fleet_state()
            viper.save_weights(
                "m", v1, mode=CaptureMode.SYNC,
                strategy=TransferStrategy.HOST_TO_HOST,
            )
            viper.load_weights("m")  # registers the consumer-held base
            v2 = perturb(v1, ["layer0"])  # 1 of 8 tensors changed
            result = viper.save_weights(
                "m", v2, mode=CaptureMode.SYNC,
                strategy=TransferStrategy.HOST_TO_HOST,
            )
            # The record accounts the frame, not the full blob.
            assert 0 < result.record.wire_bytes < result.record.nbytes // 3
            loaded = viper.load_weights("m")
            assert loaded.version == 2
            for key in v2:
                np.testing.assert_array_equal(loaded.state[key], v2[key])
            snap = viper.handler.stats.snapshot()
            assert snap.bytes_on_wire < snap.bytes_total
            assert snap.delta_hits >= 1
            assert snap.dedup_hit_ratio > 0.5

    def test_missing_base_falls_back_to_monolithic(self):
        with Viper(delta=True) as viper:
            v1 = fleet_state(seed=1)
            viper.save_weights(
                "m", v1, mode=CaptureMode.SYNC,
                strategy=TransferStrategy.HOST_TO_HOST,
            )
            viper.load_weights("m")
            v2 = perturb(v1, ["layer1"])
            viper.save_weights(
                "m", v2, mode=CaptureMode.SYNC,
                strategy=TransferStrategy.HOST_TO_HOST,
            )
            # The consumer restarts: its held base is gone, but the
            # staged blob for v2 is a delta frame against v1.
            viper.handler.delta.forget_held("m")
            loaded = viper.load_weights("m")
            assert loaded.version == 2
            for key in v2:
                np.testing.assert_array_equal(loaded.state[key], v2[key])
            snap = viper.handler.stats.snapshot()
            assert snap.delta_fallbacks >= 1

    def test_pfs_strategy_always_ships_monolithic(self):
        with Viper(delta=True) as viper:
            v1 = fleet_state(seed=2)
            viper.save_weights(
                "m", v1, mode=CaptureMode.SYNC, strategy=TransferStrategy.PFS
            )
            viper.load_weights("m")
            v2 = perturb(v1, ["layer0"])
            result = viper.save_weights(
                "m", v2, mode=CaptureMode.SYNC, strategy=TransferStrategy.PFS
            )
            # The durable root stays self-contained for crash recovery.
            assert result.record.wire_bytes == 0
            loaded = viper.load_weights("m")
            for key in v2:
                np.testing.assert_array_equal(loaded.state[key], v2[key])

    def test_first_save_ships_whole(self):
        # No base exists for version 1: the frame could only add bytes.
        with Viper(delta=True) as viper:
            result = viper.save_weights(
                "m", fleet_state(seed=5), mode=CaptureMode.SYNC,
                strategy=TransferStrategy.HOST_TO_HOST,
            )
            assert result.record.wire_bytes == 0
            assert viper.handler.stats.snapshot().delta_hits == 0

    def test_corrupt_frame_header_is_a_counted_corruption(self):
        # Regression: a staged frame whose header no longer parses (its
        # version byte flipped) raised StorageError, so the load was
        # neither counted as a corruption nor as a rejected swap.
        from repro.dnn.layers import Dense
        from repro.dnn.models import Sequential
        from repro.errors import IntegrityError, RetriesExhausted

        def builder():
            return Sequential([Dense(64, name="d")], input_shape=(64,), seed=7)

        kw = dict(mode=CaptureMode.SYNC, strategy=TransferStrategy.HOST_TO_HOST)
        with Viper(delta=True) as viper:
            consumer = viper.consumer(model_builder=builder)
            v1 = builder().state_dict()
            viper.save_weights("m", v1, **kw)
            consumer.apply_update("m")
            v2 = perturb(v1, ["d/b"])  # sparse: the weight matrix is reused
            res = viper.save_weights("m", v2, **kw)
            store = viper.consumer_node.dram
            frame, _ = store.get(res.record.path)
            assert 0 < res.record.wire_bytes < res.record.nbytes
            bad = bytearray(frame)
            bad[4] ^= 0xFF  # the frame version: 4 -> 251
            store.put(res.record.path, bytes(bad))
            with pytest.raises(RetriesExhausted) as info:
                consumer.apply_update("m")
            assert isinstance(info.value.__cause__, IntegrityError)
            snap = viper.handler.stats.snapshot()
            assert snap.corruptions == snap.retries + 1
            assert snap.swaps_rejected == 1
            assert consumer.current_version == 1

    def test_wrong_inner_crc_under_a_valid_frame_is_rejected(self):
        # The frame's out-CRC vouches for the reconstructed bytes as they
        # are, so a blob whose own v2 header CRC is wrong reconstructs
        # cleanly.  The inner check, derived from that carried out-CRC
        # instead of re-reading the payload, must still refuse it.
        import zlib

        from repro.core.transfer.delta import encode_frame
        from repro.dnn.layers import Dense
        from repro.dnn.models import Sequential
        from repro.errors import IntegrityError, RetriesExhausted

        def builder():
            return Sequential([Dense(64, name="d")], input_shape=(64,), seed=7)

        kw = dict(mode=CaptureMode.SYNC, strategy=TransferStrategy.HOST_TO_HOST)
        with Viper(delta=True) as viper:
            consumer = viper.consumer(model_builder=builder)
            v1 = builder().state_dict()
            viper.save_weights("m", v1, **kw)
            consumer.apply_update("m")
            res = viper.save_weights("m", perturb(v1, ["d/b"]), **kw)
            assert 0 < res.record.wire_bytes < res.record.nbytes
            delta = viper.handler.delta
            bad = bytearray(delta.full_blob("m", 2))
            bad[8] ^= 0x01  # the v2 header's payload CRC
            bad = bytes(bad)
            chunk = delta.config.chunk_bytes
            # A bare encode CRCs what it is given: a valid out-CRC.
            frame, _ = encode_frame(delta.full_blob("m", 1), [bad], chunk)
            viper.consumer_node.dram.put(res.record.path, frame)
            ser = viper.handler.serializer
            carried = []
            real_loads = ser.loads

            def loads(blob, **kwargs):
                carried.append(blob.crc)  # the reconstruction's out-CRC
                return real_loads(blob, **kwargs)

            ser.loads = loads
            with pytest.raises(RetriesExhausted) as info:
                consumer.apply_update("m")
            cause = info.value.__cause__
            assert isinstance(cause, IntegrityError)
            assert "checksum mismatch" in str(cause)
            assert carried and set(carried) == {zlib.crc32(bad)}
            snap = viper.handler.stats.snapshot()
            assert snap.swaps_rejected == 1
            assert consumer.current_version == 1

    def test_delta_off_keeps_monolithic_accounting(self):
        with Viper() as viper:
            viper.save_weights(
                "m", fleet_state(seed=3), mode=CaptureMode.SYNC,
                strategy=TransferStrategy.HOST_TO_HOST,
            )
            rec = viper.load_weights("m").record
            assert rec.wire_bytes == 0
            assert rec.wire_fraction == 1.0
            snap = viper.handler.stats.snapshot()
            assert snap.delta_hits == 0

    def test_async_delta_saves_drain_clean(self):
        with Viper(delta=True) as viper:
            v1 = fleet_state(seed=4)
            viper.save_weights(
                "m", v1, mode=CaptureMode.SYNC,
                strategy=TransferStrategy.HOST_TO_HOST,
            )
            viper.load_weights("m")
            state = v1
            for i in range(3):
                state = perturb(state, [f"layer{i % 8}"], scale=0.1)
                viper.save_weights(
                    "m", state, mode=CaptureMode.ASYNC,
                    strategy=TransferStrategy.HOST_TO_HOST,
                )
                viper.drain()
                loaded = viper.load_weights("m")
                for key in state:
                    np.testing.assert_array_equal(loaded.state[key], state[key])

    def test_consumer_refresh_over_delta_path(self):
        # The full consumer wave: subscribe, refresh, double-buffer swap.
        from repro.dnn.layers import Dense
        from repro.dnn.models import Sequential

        def builder():
            return Sequential([Dense(4, name="d")], input_shape=(8,), seed=7)

        with Viper(delta=True) as viper:
            consumer = viper.consumer(model_builder=builder)
            consumer.subscribe()
            state = builder().state_dict()
            for i in range(3):
                state = {k: v.copy() for k, v in state.items()}
                state["d/W"][...] = float(i)
                viper.save_weights(
                    "m", state, mode=CaptureMode.SYNC,
                    strategy=TransferStrategy.HOST_TO_HOST,
                )
                consumer.refresh("m")
                live = consumer.current_model().state_dict()
                np.testing.assert_allclose(live["d/W"], float(i))
            assert consumer.current_version == 3
