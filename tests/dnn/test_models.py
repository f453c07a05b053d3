"""Sequential model container tests."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.apps.candle import build_tc1
from repro.dnn.layers import Dense, Dropout, Flatten, ReLU
from repro.dnn.losses import CrossEntropyLoss
from repro.dnn.models import Sequential
from repro.dnn.optimizers import SGD


def make_model(seed=1):
    model = Sequential(
        [Dense(8, name="d1"), ReLU(name="r"), Dense(2, name="d2")],
        input_shape=(4,),
        name="m",
        seed=seed,
    )
    model.compile(SGD(lr=0.1), CrossEntropyLoss())
    return model


RNG = np.random.default_rng(9)


class TestConstruction:
    def test_output_shape_propagates(self):
        assert make_model().output_shape == (2,)

    def test_empty_layers_rejected(self):
        with pytest.raises(ConfigurationError):
            Sequential([], input_shape=(4,))

    def test_duplicate_layer_names_rejected(self):
        with pytest.raises(ConfigurationError):
            Sequential(
                [Dense(3, name="same"), Dense(3, name="same")], input_shape=(4,)
            )

    def test_num_params_and_tensors(self):
        model = make_model()
        assert model.num_params == (4 * 8 + 8) + (8 * 2 + 2)
        assert model.num_tensors == 4

    def test_seed_controls_init(self):
        a, b = make_model(seed=5), make_model(seed=5)
        np.testing.assert_array_equal(
            a.state_dict()["d1/W"], b.state_dict()["d1/W"]
        )
        c = make_model(seed=6)
        assert not np.array_equal(a.state_dict()["d1/W"], c.state_dict()["d1/W"])

    def test_summary_lists_layers(self):
        text = make_model().summary()
        assert "d1" in text and "total params" in text


class TestStateDict:
    def test_roundtrip(self):
        a, b = make_model(seed=1), make_model(seed=2)
        b.load_state_dict(a.state_dict())
        for key, value in a.state_dict().items():
            np.testing.assert_array_equal(value, b.state_dict()[key])

    def test_state_dict_is_a_copy(self):
        model = make_model()
        state = model.state_dict()
        state["d1/W"][...] = 99.0
        assert not np.any(model.state_dict()["d1/W"] == 99.0)

    def test_missing_key_rejected(self):
        model = make_model()
        state = model.state_dict()
        del state["d1/W"]
        with pytest.raises(ConfigurationError):
            model.load_state_dict(state)

    def test_extra_key_rejected(self):
        model = make_model()
        state = model.state_dict()
        state["ghost/W"] = np.zeros(3)
        with pytest.raises(ConfigurationError):
            model.load_state_dict(state)

    def test_shape_mismatch_rejected(self):
        model = make_model()
        state = model.state_dict()
        state["d1/W"] = np.zeros((2, 2))
        with pytest.raises(ConfigurationError):
            model.load_state_dict(state)

    @staticmethod
    def _read_only_views(state, misalign):
        """``state`` as read-only views over ``bytes``; a tensor named in
        ``misalign`` starts 2 bytes into its buffer, so it is unaligned."""
        views = {}
        for key, value in state.items():
            pad = 2 if key in misalign else 0
            buf = b"\0" * pad + value.tobytes()
            views[key] = np.frombuffer(buf, value.dtype, offset=pad).reshape(
                value.shape
            )
        return views

    def test_zero_copy_load_adopts_only_aligned_views(self):
        a, b = make_model(seed=1), make_model(seed=2)
        views = self._read_only_views(a.state_dict(), misalign={"d1/W"})
        assert views["d1/b"].flags.aligned and not views["d1/W"].flags.aligned
        for _ in range(2):  # a second load finds read-only params in place
            b.load_state_dict(views, copy=False)
            params = {
                f"{layer.name}/{p}": v
                for layer in b.layers
                for p, v in layer.params.items()
            }
            for key, value in views.items():
                np.testing.assert_array_equal(params[key], value)
                if key == "d1/W":
                    assert params[key] is not value
                    assert params[key].flags.aligned and params[key].flags.writeable
                else:
                    assert params[key] is value

    def test_loaded_weights_change_predictions(self):
        a, b = make_model(seed=1), make_model(seed=2)
        x = RNG.standard_normal((4, 4)).astype(np.float32)
        before = b.predict(x)
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(b.predict(x), a.predict(x))
        assert not np.allclose(before, b.predict(x))


class TestComputation:
    def test_predict_batches_consistent(self):
        model = make_model()
        x = RNG.standard_normal((10, 4)).astype(np.float32)
        np.testing.assert_allclose(
            model.predict(x, batch_size=3), model.predict(x, batch_size=10),
            rtol=1e-5,
        )

    def test_predict_on_an_empty_batch(self):
        out = build_tc1().predict(np.zeros((0, 64, 1), np.float32))
        assert out.shape == (0, 18)

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_predict_shares_no_memory_with_its_input(self, n):
        # Flatten and an inference Dropout hand back views of x; predict
        # must still return an array of its own, one batch or several.
        model = Sequential([Flatten(), Dropout(0.5)], input_shape=(2, 3))
        x = RNG.standard_normal((n, 2, 3)).astype(np.float32)
        out = model.predict(x, batch_size=3)
        assert not np.may_share_memory(out, x)
        np.testing.assert_array_equal(out, x.reshape(n, 6))

    def test_train_batch_reduces_loss(self):
        model = make_model()
        x = RNG.standard_normal((32, 4)).astype(np.float32)
        y = (x[:, 0] > 0).astype(np.int64)
        first = model.train_batch(x, y)
        for _ in range(50):
            last = model.train_batch(x, y)
        assert last < first

    def test_train_batch_requires_compile(self):
        model = Sequential([Dense(2)], input_shape=(4,))
        with pytest.raises(ConfigurationError):
            model.train_batch(np.zeros((1, 4)), np.zeros(1, dtype=int))

    def test_evaluate_matches_loss(self):
        model = make_model()
        x = RNG.standard_normal((8, 4)).astype(np.float32)
        y = np.zeros(8, dtype=np.int64)
        expected = model.loss.forward(model.forward(x), y)
        assert model.evaluate(x, y) == pytest.approx(expected)

    def test_evaluate_batched(self):
        model = make_model()
        x = RNG.standard_normal((10, 4)).astype(np.float32)
        y = np.zeros(10, dtype=np.int64)
        assert model.evaluate(x, y, batch_size=3) == pytest.approx(
            model.evaluate(x, y, batch_size=10), rel=1e-6
        )
