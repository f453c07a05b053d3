"""Viper facade and role-view tests."""

import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from repro import CaptureMode, TransferStrategy, Viper
from repro.core.transfer.delta import DeltaConfig
from repro.core.transfer.pipeline import PipelineConfig
from repro.errors import ServingError
from repro.dnn.layers import Dense
from repro.dnn.models import Sequential
from repro.dnn.serialization import ViperSerializer


def tiny_model_builder():
    return Sequential([Dense(2, name="d")], input_shape=(3,), seed=1)


def tiny_state():
    return tiny_model_builder().state_dict()


class TestViperFacade:
    def test_save_then_load(self):
        with Viper() as viper:
            state = tiny_state()
            result = viper.save_weights("m", state, mode=CaptureMode.SYNC)
            loaded = viper.load_weights("m")
            assert loaded.version == result.version
            for key in state:
                np.testing.assert_array_equal(loaded.state[key], state[key])

    def test_loaded_state_is_read_only_views_by_default(self):
        with Viper() as viper:
            state = tiny_state()
            viper.save_weights("m", state, mode=CaptureMode.SYNC)
            loaded = viper.load_weights("m")
            for key in state:
                with pytest.raises(ValueError):
                    loaded.state[key][...] = 0.0
            again = viper.load_weights("m")
            for key in state:
                assert again.state[key].tobytes() == state[key].tobytes()

    def test_context_manager_closes(self):
        viper = Viper()
        with viper:
            pass
        # engine threads are stopped; a new save must fail gracefully or
        # the broker must be closed — check the broker side.
        assert viper.broker.subscriber_count(viper.topic) == 0

    def test_drain_settles_async_saves(self):
        with Viper() as viper:
            viper.save_weights("m", tiny_state(), mode=CaptureMode.ASYNC)
            viper.drain()
            assert viper.load_weights("m").version == 1


class TestDeltaKnobs:
    def test_default_config_keeps_delta_off(self):
        # Only DeltaConfig.enabled opts a deployment into the delta path.
        for delta in (None, False, DeltaConfig(), DeltaConfig(chunk_bytes=4096)):
            with Viper(delta=delta) as viper:
                assert not viper.handler.delta.enabled

    def test_enabled_config_reaches_the_handler(self):
        cfg = DeltaConfig(enabled=True, chunk_bytes=4096)
        with Viper(delta=cfg) as viper:
            assert viper.handler.delta.enabled
            assert viper.handler.delta.config is cfg

    def test_delta_true_enables_the_defaults(self):
        with Viper(delta=True) as viper:
            assert viper.handler.delta.config == DeltaConfig(enabled=True)


class TestConsumer:
    def test_refresh_applies_newest(self):
        with Viper() as viper:
            consumer = viper.consumer(model_builder=tiny_model_builder)
            consumer.subscribe()
            viper.save_weights("m", tiny_state(), mode=CaptureMode.SYNC)
            result = consumer.refresh("m")
            assert result is not None
            assert consumer.current_version == 1

    def test_refresh_when_current_returns_none(self):
        with Viper() as viper:
            consumer = viper.consumer(model_builder=tiny_model_builder)
            viper.save_weights("m", tiny_state(), mode=CaptureMode.SYNC)
            consumer.refresh("m")
            assert consumer.refresh("m") is None

    def test_refresh_without_updates_returns_none(self):
        with Viper() as viper:
            consumer = viper.consumer(model_builder=tiny_model_builder)
            consumer.subscribe()
            assert consumer.refresh() is None

    def test_refresh_discovers_model_from_notification(self):
        with Viper() as viper:
            consumer = viper.consumer(model_builder=tiny_model_builder)
            consumer.subscribe()
            viper.save_weights("m", tiny_state(), mode=CaptureMode.SYNC)
            # No model name passed: it comes from the queued notification.
            result = consumer.refresh()
            assert result is not None and result.model_name == "m"

    def test_skip_intermediate_versions(self):
        with Viper() as viper:
            consumer = viper.consumer(model_builder=tiny_model_builder)
            consumer.subscribe()
            for _ in range(3):
                viper.save_weights("m", tiny_state(), mode=CaptureMode.SYNC)
            consumer.refresh()
            assert consumer.current_version == 3
            assert consumer.updates_applied == 1

    def test_apply_update_rejects_stale(self):
        with Viper() as viper:
            consumer = viper.consumer(model_builder=tiny_model_builder)
            viper.save_weights("m", tiny_state(), mode=CaptureMode.SYNC)
            consumer.apply_update("m")
            with pytest.raises(ServingError):
                consumer.apply_update("m", version=1)

    def test_served_model_reflects_loaded_weights(self):
        with Viper() as viper:
            consumer = viper.consumer(model_builder=tiny_model_builder)
            trained = tiny_model_builder()
            trained.state_dict()  # warm
            state = trained.state_dict()
            state["d/W"][...] = 7.0
            viper.save_weights("m", state, mode=CaptureMode.SYNC)
            consumer.apply_update("m")
            live = consumer.current_model()
            np.testing.assert_allclose(live.state_dict()["d/W"], 7.0)

    def test_double_buffer_spare_rotation(self):
        with Viper() as viper:
            consumer = viper.consumer(model_builder=tiny_model_builder)
            models = set()
            for i in range(4):
                viper.save_weights("m", tiny_state(), mode=CaptureMode.SYNC)
                consumer.apply_update("m")
                models.add(id(consumer.current_model()))
            # Two replicas rotate: at most 2 distinct model objects.
            assert len(models) <= 2

    def test_load_seconds_accumulate(self):
        with Viper() as viper:
            consumer = viper.consumer(model_builder=tiny_model_builder)
            viper.save_weights("m", tiny_state(), mode=CaptureMode.SYNC)
            consumer.apply_update("m")
            assert consumer.load_seconds > 0


def wide_model_builder():
    return Sequential([Dense(16, name="d")], input_shape=(32,), seed=2)


def params(model):
    return {
        f"{layer.name}/{p}": array
        for layer in model.layers
        for p, array in layer.params.items()
    }


class TestZeroCopyConsumer:
    """Every consumer load reads the verified bytes in place, whatever the
    pipeline knob says: the replica adopts each aligned view and copies
    only a tensor at an unaligned offset into an aligned array of its own.
    The wide model has one of each: ``d/W``'s payload starts 2 bytes past
    a 4-byte boundary of the blob, ``d/b``'s on one."""

    ALIGNED, UNALIGNED = "d/b", "d/W"

    def test_the_model_has_one_aligned_and_one_unaligned_tensor(self):
        ser = ViperSerializer()
        state = ser.loads(ser.dumps(wide_model_builder().state_dict()), copy=False)
        assert state[self.ALIGNED].flags.aligned
        assert not state[self.UNALIGNED].flags.aligned

    @contextmanager
    def _placed(self, pipelined, op):
        """Save v1 (applied) and a sparse v2 (placed by ``op``); yields
        the model ``op`` filled, v2, and the buffers of the consumer's held
        base segments."""
        kw = dict(mode=CaptureMode.SYNC, strategy=TransferStrategy.HOST_TO_HOST)
        with Viper(pipeline=PipelineConfig(enabled=pipelined), delta=True) as viper:
            consumer = viper.consumer(model_builder=wide_model_builder)
            v1 = wide_model_builder().state_dict()
            viper.save_weights("m", v1, **kw)
            consumer.apply_update("m")
            v2 = dict(v1, **{"d/b": v1["d/b"] + 1.0})
            res = viper.save_weights("m", v2, **kw)
            assert 0 < res.record.wire_bytes < res.record.nbytes  # a frame
            getattr(consumer, op)("m")
            if op == "apply_update":
                model = consumer.current_model()
            else:
                model = consumer.canary_snapshot().model
            held = viper.handler.delta._held_base["m"]
            yield model, v2, [np.frombuffer(v, dtype=np.uint8) for v in held.views]

    @pytest.mark.parametrize("op", ["apply_update", "stage_candidate"])
    @pytest.mark.parametrize("pipelined", [True, False], ids=["pipeline", "default"])
    def test_aligned_tensor_is_the_verified_bytes(self, pipelined, op):
        with self._placed(pipelined, op) as (model, v2, held):
            array = params(model)[self.ALIGNED]
            assert not array.flags.writeable
            assert any(np.shares_memory(array, seg) for seg in held)
            with pytest.raises(ValueError):
                array[...] = 0.0
            assert array.tobytes() == v2[self.ALIGNED].tobytes()

    @pytest.mark.parametrize("op", ["apply_update", "stage_candidate"])
    @pytest.mark.parametrize("pipelined", [True, False], ids=["pipeline", "default"])
    def test_unaligned_tensor_is_an_aligned_private_copy(self, pipelined, op):
        with self._placed(pipelined, op) as (model, v2, held):
            array = params(model)[self.UNALIGNED]
            assert array.flags.writeable and array.flags.aligned
            assert not any(np.shares_memory(array, seg) for seg in held)
            assert array.tobytes() == v2[self.UNALIGNED].tobytes()

    def test_default_apply_allocates_no_full_size_buffer(self):
        # Five-character tensor names ("l00/W") put every payload of this
        # 4 MB model on a 4-byte boundary, so the replica adopts all of it.
        def builder():
            return Sequential(
                [Dense(512, name=f"l{i:02d}") for i in range(4)],
                input_shape=(512,), seed=3,
            )

        state = builder().state_dict()
        blob_bytes = len(ViperSerializer().dumps(state))
        with Viper() as viper:
            consumer = viper.consumer(model_builder=builder)
            viper.save_weights("m", state, mode=CaptureMode.SYNC)
            tracemalloc.start()
            try:
                consumer.apply_update("m")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < blob_bytes / 2
            for key, array in params(consumer.current_model()).items():
                assert not array.flags.writeable, key
                assert array.tobytes() == state[key].tobytes(), key

    def test_copying_load_after_a_zero_copy_one(self):
        model = wide_model_builder()
        frozen = model.state_dict()  # private copies
        for array in frozen.values():
            array.flags.writeable = False
        model.load_state_dict(frozen, copy=False)
        assert params(model)["d/W"] is frozen["d/W"]
        fresh = {k: v + 1.0 for k, v in frozen.items()}
        model.load_state_dict(fresh)  # no write into the read-only arrays
        for key, array in params(model).items():
            assert array.flags.writeable and array is not frozen[key]
            np.testing.assert_array_equal(array, fresh[key])


class TestProducerView:
    def test_checkpoint_callback_bound(self):
        with Viper() as viper:
            producer = viper.producer()
            cb = producer.checkpoint_callback("nt3", interval=5, warmup_iters=0)
            assert cb.viper is viper
            assert cb.model_name == "nt3"

    def test_producer_save(self):
        with Viper() as viper:
            producer = viper.producer()
            result = producer.save_weights("m", tiny_state(), mode=CaptureMode.SYNC)
            assert result.version == 1
