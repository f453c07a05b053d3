"""Layer forward/backward correctness, including numerical grad checks."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import ConfigurationError
from repro.dnn.layers import (
    Conv1D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool1D,
    MaxPool2D,
    ReLU,
    UpSampling2D,
)
from repro.dnn.losses import CrossEntropyLoss, softmax
from tests.dnn.gradcheck import check_layer_input_grad, check_layer_param_grads

RNG = np.random.default_rng(42)


def build(layer, shape):
    layer.build(shape, np.random.default_rng(7))
    return layer


class TestDense:
    def test_forward_matches_matmul(self):
        layer = build(Dense(3), (4,))
        x = RNG.standard_normal((2, 4)).astype(np.float64)
        out = layer.forward(x)
        np.testing.assert_allclose(out, x @ layer.params["W"] + layer.params["b"])

    def test_output_shape(self):
        assert Dense(7).output_shape((4,)) == (7,)

    def test_input_grad(self):
        layer = build(Dense(3), (4,))
        check_layer_input_grad(layer, RNG.standard_normal((2, 4)))

    def test_param_grads(self):
        layer = build(Dense(3), (4,))
        check_layer_param_grads(layer, RNG.standard_normal((2, 4)))

    def test_invalid_units(self):
        with pytest.raises(ConfigurationError):
            Dense(0)

    def test_num_params(self):
        layer = build(Dense(3), (4,))
        assert layer.num_params == 4 * 3 + 3


class TestConv1D:
    def test_valid_output_shape(self):
        assert Conv1D(8, 3, padding="valid").output_shape((10, 2)) == (8, 8)

    def test_same_output_shape(self):
        assert Conv1D(8, 3, padding="same").output_shape((10, 2)) == (10, 8)

    def test_forward_matches_manual(self):
        layer = build(Conv1D(1, 2, padding="valid"), (4, 1))
        layer.params["W"][...] = np.array([[[1.0]], [[2.0]]])  # (K, C, O)
        layer.params["b"][...] = 0.5
        x = np.array([[[1.0], [2.0], [3.0], [4.0]]])
        out = layer.forward(x)
        # out[i] = x[i]*1 + x[i+1]*2 + 0.5
        np.testing.assert_allclose(out[0, :, 0], [5.5, 8.5, 11.5])

    @pytest.mark.parametrize("padding", ["valid", "same"])
    def test_input_grad(self, padding):
        layer = build(Conv1D(3, 3, padding=padding), (6, 2))
        check_layer_input_grad(layer, RNG.standard_normal((2, 6, 2)))

    @pytest.mark.parametrize("padding", ["valid", "same"])
    def test_param_grads(self, padding):
        layer = build(Conv1D(3, 3, padding=padding), (6, 2))
        check_layer_param_grads(layer, RNG.standard_normal((2, 6, 2)))

    def test_even_kernel_same_rejected(self):
        with pytest.raises(ConfigurationError):
            Conv1D(4, 4, padding="same")

    def test_input_shorter_than_kernel_rejected(self):
        with pytest.raises(ValueError):
            build(Conv1D(2, 5), (6, 1)).forward(np.zeros((1, 4, 1)))
        with pytest.raises(ValueError):
            build(Conv2D(2, 3, padding="valid"), (5, 5, 1)).forward(
                np.zeros((1, 5, 2, 1))
            )

    def test_unknown_padding_rejected(self):
        with pytest.raises(ConfigurationError):
            Conv1D(4, 3, padding="reflect")


class TestConv2D:
    def test_same_output_shape(self):
        assert Conv2D(5, 3, padding="same").output_shape((8, 8, 2)) == (8, 8, 5)

    def test_valid_output_shape(self):
        assert Conv2D(5, 3, padding="valid").output_shape((8, 8, 2)) == (6, 6, 5)

    @pytest.mark.parametrize("padding", ["valid", "same"])
    def test_input_grad(self, padding):
        layer = build(Conv2D(2, 3, padding=padding), (5, 5, 2))
        check_layer_input_grad(layer, RNG.standard_normal((2, 5, 5, 2)))

    @pytest.mark.parametrize("padding", ["valid", "same"])
    def test_param_grads(self, padding):
        layer = build(Conv2D(2, 3, padding=padding), (5, 5, 2))
        check_layer_param_grads(layer, RNG.standard_normal((2, 5, 5, 2)))

    def test_identity_kernel(self):
        layer = build(Conv2D(1, 1, padding="same"), (3, 3, 1))
        layer.params["W"][...] = 1.0
        layer.params["b"][...] = 0.0
        x = RNG.standard_normal((1, 3, 3, 1))
        np.testing.assert_allclose(layer.forward(x), x)


class TestPooling:
    def test_maxpool1d_forward(self):
        layer = MaxPool1D(2)
        x = np.array([[[1.0], [5.0], [2.0], [3.0], [9.0], [0.0]]])
        np.testing.assert_allclose(layer.forward(x)[0, :, 0], [5.0, 3.0, 9.0])

    def test_maxpool1d_truncates_tail(self):
        layer = MaxPool1D(2)
        x = RNG.standard_normal((1, 5, 2))
        assert layer.forward(x).shape == (1, 2, 2)

    def test_maxpool1d_backward_routes_to_argmax(self):
        layer = MaxPool1D(2)
        x = np.array([[[1.0], [5.0], [2.0], [3.0]]])
        layer.forward(x)
        dx = layer.backward(np.array([[[10.0], [20.0]]]))
        np.testing.assert_allclose(dx[0, :, 0], [0.0, 10.0, 0.0, 20.0])

    def test_maxpool2d_backward_routes_to_argmax(self):
        layer = MaxPool2D(2)
        x = np.array([[1.0, 5.0, 2.0, 0.0],
                       [3.0, 4.0, 7.0, 6.0]]).reshape(1, 2, 4, 1)
        layer.forward(x)
        dx = layer.backward(np.array([[[[10.0], [20.0]]]]))
        np.testing.assert_allclose(
            dx[0, :, :, 0], [[0.0, 10.0, 0.0, 0.0], [0.0, 0.0, 20.0, 0.0]]
        )

    def test_pools_route_after_an_inference_forward(self):
        # The argmax is taken in backward, so a backward after a
        # training=False forward routes exactly as after training=True.
        x1 = np.array([[[1.0], [5.0], [2.0], [3.0]]])
        x2 = np.arange(16.0)[::-1].reshape(1, 4, 4, 1)
        for layer, x in ((MaxPool1D(2), x1), (MaxPool2D(2), x2)):
            out = layer.forward(x, training=True)
            dout = RNG.standard_normal(out.shape)
            routed = layer.backward(dout)
            layer.forward(x, training=False)
            np.testing.assert_array_equal(layer.backward(dout), routed)
            assert np.count_nonzero(routed) == out.size

    def test_maxpool1d_input_grad(self):
        # Use distinct values so the argmax is stable under perturbation.
        x = RNG.permutation(np.arange(24.0)).reshape(1, 12, 2)
        check_layer_input_grad(MaxPool1D(2), x)

    def test_maxpool2d_forward(self):
        layer = MaxPool2D(2)
        x = np.arange(16.0).reshape(1, 4, 4, 1)
        out = layer.forward(x)
        np.testing.assert_allclose(out[0, :, :, 0], [[5, 7], [13, 15]])

    def test_maxpool2d_input_grad(self):
        x = RNG.permutation(np.arange(32.0)).reshape(1, 4, 4, 2)
        check_layer_input_grad(MaxPool2D(2), x)

    def test_maxpool1d_ragged_tail_grad_not_dropped(self):
        # Length 5 with pool 2 truncates the tail; the scatter must still
        # land in the original dx (a reshape copy would lose it).
        layer = MaxPool1D(2)
        x = np.array([[[1.0], [5.0], [2.0], [3.0], [9.0]]])
        layer.forward(x)
        dx = layer.backward(np.array([[[10.0], [20.0]]]))
        np.testing.assert_allclose(dx[0, :, 0], [0.0, 10.0, 0.0, 20.0, 0.0])

    def test_maxpool2d_ragged_tail_grad_not_dropped(self):
        layer = MaxPool2D(2)
        x = np.arange(25.0).reshape(1, 5, 5, 1)
        out = layer.forward(x)
        assert out.shape == (1, 2, 2, 1)
        dx = layer.backward(np.ones((1, 2, 2, 1)))
        assert dx.sum() == pytest.approx(4.0)
        assert dx[0, 1, 1, 0] == 1.0 and dx[0, 1, 3, 0] == 1.0

    def test_upsampling_forward(self):
        layer = UpSampling2D(2)
        x = np.array([[[[1.0], [2.0]], [[3.0], [4.0]]]])
        out = layer.forward(x)
        assert out.shape == (1, 4, 4, 1)
        np.testing.assert_allclose(out[0, :2, :2, 0], [[1, 1], [1, 1]])

    def test_upsampling_backward_sums(self):
        layer = UpSampling2D(2)
        x = RNG.standard_normal((1, 2, 2, 1))
        layer.forward(x)
        dout = np.ones((1, 4, 4, 1))
        np.testing.assert_allclose(layer.backward(dout), np.full((1, 2, 2, 1), 4.0))

    def test_upsampling_input_grad(self):
        check_layer_input_grad(UpSampling2D(2), RNG.standard_normal((1, 3, 3, 2)))

class TestShapeAndStateless:
    def test_flatten_roundtrip(self):
        layer = Flatten()
        x = RNG.standard_normal((2, 3, 4))
        out = layer.forward(x)
        assert out.shape == (2, 12)
        np.testing.assert_allclose(layer.backward(out), x)

    def test_relu(self):
        layer = ReLU()
        x = np.array([[-1.0, 0.5]])
        np.testing.assert_allclose(layer.forward(x), [[0.0, 0.5]])
        np.testing.assert_allclose(layer.backward(np.ones_like(x)), [[0.0, 1.0]])

    def test_dropout_identity_in_eval(self):
        layer = Dropout(0.5)
        x = RNG.standard_normal((4, 4))
        np.testing.assert_allclose(layer.forward(x, training=False), x)

    def test_dropout_scales_in_train(self):
        layer = Dropout(0.5, seed=1)
        x = np.ones((1, 10_000))
        out = layer.forward(x, training=True)
        kept = out[out > 0]
        np.testing.assert_allclose(kept, 2.0)
        assert 0.4 < (kept.size / x.size) < 0.6

    def test_dropout_backward_uses_same_mask(self):
        layer = Dropout(0.5, seed=2)
        x = np.ones((1, 100))
        out = layer.forward(x, training=True)
        grad = layer.backward(np.ones_like(x))
        np.testing.assert_allclose(grad, out)

    def test_dropout_invalid_rate(self):
        with pytest.raises(ConfigurationError):
            Dropout(1.0)

    def test_unique_default_names(self):
        assert ReLU().name != ReLU().name


# -- Differential: the strided im2col convolutions, the argmax-free and
# folded pools, the in-place bias adds, the fmax ReLU and the gathered
# cross-entropy against the sliding_window_view + tensordot forwards, the
# argmax-storing reduce-based pools, ``x @ W + b``, the where-ReLU and the
# one-hot cross-entropy they replaced, kept below as test-only oracles.
# Training runs the same forwards, so every output bit must match.


class RefConv1D(Conv1D):
    def forward(self, x, training=False):
        pad = self._pad()
        self._in_len = x.shape[1]
        if pad:
            x = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
        windows = sliding_window_view(x, self.kernel_size, axis=1)
        self._windows = windows
        return (
            np.tensordot(windows, self.params["W"], axes=([3, 2], [0, 1]))
            + self.params["b"]
        )


class RefConv2D(Conv2D):
    def forward(self, x, training=False):
        pad = self._pad()
        self._in_hw = (x.shape[1], x.shape[2])
        if pad:
            x = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
        k = self.kernel_size
        windows = sliding_window_view(x, (k, k), axis=(1, 2))
        self._windows = windows
        return (
            np.tensordot(windows, self.params["W"], axes=([4, 5, 3], [0, 1, 2]))
            + self.params["b"]
        )


class RefMaxPool1D(MaxPool1D):
    def forward(self, x, training=False):
        p = self.pool_size
        n, length, c = x.shape
        l_out = length // p
        self._in_shape = x.shape
        view = x[:, : l_out * p, :].reshape(n, l_out, p, c)
        self._argmax = view.argmax(axis=2)
        return view.max(axis=2)

    def backward(self, dout):
        p = self.pool_size
        n, l_out, c = dout.shape
        dx = np.zeros(self._in_shape, dtype=dout.dtype)
        ni, li, ci = np.ogrid[:n, :l_out, :c]
        dx[ni, li * p + self._argmax, ci] = dout
        return dx


class RefReLU(ReLU):
    def forward(self, x, training=False):
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, dout):
        return dout * self._mask


class RefDense(Dense):
    def forward(self, x, training=False):
        self._x = x
        return x @ self.params["W"] + self.params["b"]


class RefCrossEntropy(CrossEntropyLoss):
    def forward(self, pred, target):
        probs = softmax(pred.astype(np.float64))
        onehot = self._onehot(np.asarray(target), pred.shape[-1])
        eps = 1e-12
        per_sample = -(onehot * np.log(probs + eps)).sum(axis=-1)
        return float(per_sample.mean())


class RefMaxPool2D(MaxPool2D):
    def forward(self, x, training=False):
        p = self.pool_size
        n, h, w, c = x.shape
        ho, wo = h // p, w // p
        self._in_shape = x.shape
        view = x[:, : ho * p, : wo * p, :].reshape(n, ho, p, wo, p, c)
        flat = view.transpose(0, 1, 3, 2, 4, 5).reshape(n, ho, wo, p * p, c)
        self._argmax = flat.argmax(axis=3)
        return flat.max(axis=3)

    def backward(self, dout):
        p = self.pool_size
        n, ho, wo, c = dout.shape
        dx = np.zeros(self._in_shape, dtype=dout.dtype)
        rows = self._argmax // p
        cols = self._argmax % p
        ni, hi, wi, ci = np.ogrid[:n, :ho, :wo, :c]
        dx[ni, hi * p + rows, wi * p + cols, ci] = dout
        return dx


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(
        np.ascontiguousarray(got).view(np.uint32),
        np.ascontiguousarray(want).view(np.uint32),
    )


@st.composite
def layer_input(draw, ndim, lo):
    """An ``(N, *spatial, C)`` input, each spatial size >= ``lo``: either
    contiguous or a strided slice (every other position along each
    spatial axis, channels from an offset), float32 or float64, and
    normal or small-integer values (ties for the pools)."""
    n = draw(st.integers(1, 3))
    spatial = tuple(draw(st.integers(lo, lo + 5)) for _ in range(ndim))
    c = draw(st.integers(1, 3))
    sliced = draw(st.booleans())
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    step = 2 if sliced else 1
    shape = (n, *(step * s for s in spatial), c + sliced)
    if draw(st.booleans()):
        base = rng.standard_normal(shape)
    else:
        base = rng.integers(-2, 3, shape).astype(np.float64)
    base = base.astype(dtype)
    if not sliced:
        return base
    return base[(slice(None),) + (slice(None, None, 2),) * ndim + (slice(1, None),)]


@st.composite
def conv_case(draw, ndim):
    k = draw(st.integers(1, 4))
    padding = draw(st.sampled_from(["valid", "same"]))
    if padding == "same" and k % 2 == 0:
        k -= 1
    # "valid" down to one output position per sample: N * L_out == 1
    # is reachable with N == 1.
    x = draw(layer_input(ndim, 1 if padding == "same" else k))
    return x, k, padding, draw(st.integers(1, 4))


def assert_layers_agree(layer, ref, x):
    """Forward outputs, then input and parameter gradients after a
    training forward and one backward, bit for bit."""
    out, want = layer.forward(x, training=True), ref.forward(x, training=True)
    assert_same_bits(out, want)
    dout = np.random.default_rng(3).standard_normal(out.shape).astype(out.dtype)
    assert_same_bits(layer.backward(dout), ref.backward(dout))
    for pname in layer.params:
        assert_same_bits(layer.grads[pname], ref.grads[pname])


class TestAgainstTheReplacedForwards:
    @settings(max_examples=150, deadline=None)
    @given(conv_case(1))
    def test_conv1d(self, case):
        x, k, padding, filters = case
        shape = x.shape[1:]
        layer = build(Conv1D(filters, k, padding=padding), shape)
        ref = build(RefConv1D(filters, k, padding=padding), shape)
        assert_layers_agree(layer, ref, x)

    @settings(max_examples=150, deadline=None)
    @given(conv_case(2))
    def test_conv2d(self, case):
        x, k, padding, filters = case
        shape = x.shape[1:]
        layer = build(Conv2D(filters, k, padding=padding), shape)
        ref = build(RefConv2D(filters, k, padding=padding), shape)
        assert_layers_agree(layer, ref, x)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_maxpool1d(self, p, data):
        x = data.draw(layer_input(1, p))
        assert_layers_agree(MaxPool1D(p), RefMaxPool1D(p), x)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_maxpool2d(self, p, data):
        x = data.draw(layer_input(2, p))
        assert_layers_agree(MaxPool2D(p), RefMaxPool2D(p), x)

    def test_tc1_predictions(self):
        # All of tc1's test samples at scale 0.05, one by one and as one
        # batch, through a replica whose conv and pool layers are the
        # oracles.
        from repro.apps.registry import TC1

        x = TC1.dataset(scale=0.05, seed=0)[2]
        model, ref = TC1.build_model(), TC1.build_model()
        oracles = {Conv1D: RefConv1D, MaxPool1D: RefMaxPool1D}
        for layer in ref.layers:
            layer.__class__ = oracles.get(type(layer), type(layer))
        assert_same_bits(model.predict(x), ref.predict(x))
        for row in range(len(x)):
            sample = x[row : row + 1]
            assert_same_bits(model.predict(sample), ref.predict(sample))


#: float32 bit patterns the kernels must carry exactly: both zeros, both
#: infinities, quiet NaNs of either sign and with a payload, signaling
#: NaNs, the extreme subnormals, and ordinary values.
SPECIAL_BITS = [
    0x00000000, 0x80000000, 0x7F800000, 0xFF800000,
    0x7FC00000, 0xFFC00000, 0x7FC00001, 0x7F800001, 0xFF812345,
    0x00000001, 0x807FFFFF, 0x3F800000, 0xBF800000, 0x40490FDB,
]


@st.composite
def special_input(draw, ndim, lo, channels=(1, 2, 3, 16, 17)):
    """A float32 ``(N, *spatial, C)`` input, N from 0 to 3, drawn bit
    pattern by bit pattern (any of the SPECIAL_BITS, ordinary values, or
    any 32 bits at all): contiguous, or every other position of a larger
    array from a channel offset."""
    n = draw(st.integers(0, 3))
    spatial = tuple(draw(st.integers(lo, lo + 3)) for _ in range(ndim))
    c = draw(st.sampled_from(channels))
    sliced = draw(st.booleans())
    step = 2 if sliced else 1
    shape = (n, *(step * s for s in spatial), c + sliced)
    normal = st.floats(-4, 4, width=32).map(
        lambda v: int(np.float32(v).view(np.uint32))
    )
    elements = st.sampled_from(SPECIAL_BITS) | normal | st.integers(0, 2**32 - 1)
    x = draw(arrays(np.uint32, shape, elements=elements)).view(np.float32)
    if not sliced:
        return x
    return x[(slice(None),) + (slice(None, None, 2),) * ndim + (slice(1, None),)]


def assert_same_loss(got, want):
    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)


class TestAgainstTheReplacedKernelsOnSpecialValues:
    """NaN, signed zeros, infinities and subnormals, batches of 0, 1 and
    more, contiguous and strided inputs: bit for bit against the oracles."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 1), st.data())
    def test_relu(self, ndim, data):
        x = data.draw(special_input(ndim, 1))
        assert_layers_agree(ReLU(), RefReLU(), x)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_dense(self, units, data):
        x = data.draw(special_input(0, 1, channels=(1, 3, 16)))
        layer = build(Dense(units), x.shape[1:])
        ref = build(RefDense(units), x.shape[1:])
        assert_layers_agree(layer, ref, x)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4), st.sampled_from(["valid", "same"]), st.data())
    def test_conv1d(self, k, padding, data):
        if padding == "same" and k % 2 == 0:
            k -= 1
        x = data.draw(special_input(1, 1 if padding == "same" else k))
        layer = build(Conv1D(3, k, padding=padding), x.shape[1:])
        ref = build(RefConv1D(3, k, padding=padding), x.shape[1:])
        assert_layers_agree(layer, ref, x)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([1, 3]), st.sampled_from(["valid", "same"]), st.data())
    def test_conv2d(self, k, padding, data):
        x = data.draw(special_input(2, k, channels=(1, 2, 3)))
        layer = build(Conv2D(2, k, padding=padding), x.shape[1:])
        ref = build(RefConv2D(2, k, padding=padding), x.shape[1:])
        assert_layers_agree(layer, ref, x)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 4), st.data())
    def test_maxpool1d(self, p, data):
        x = data.draw(special_input(1, p))
        assert_layers_agree(MaxPool1D(p), RefMaxPool1D(p), x)

    @pytest.mark.parametrize("c", [1, 2, 17])
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_maxpool1d_every_window_of_special_values(self, p, c):
        # Every ordered p-tuple of SPECIAL_BITS is one pooling window,
        # each channel holding them in another order: which NaN survives
        # (sign and payload) must match too, contiguous and strided.
        windows = np.array(list(itertools.product(SPECIAL_BITS, repeat=p)),
                           dtype=np.uint32).ravel()
        x = np.stack([np.roll(windows, j * p) for j in range(c)], axis=-1)
        x = x[None].view(np.float32)
        assert_layers_agree(MaxPool1D(p), RefMaxPool1D(p), x)
        assert_layers_agree(MaxPool1D(p), RefMaxPool1D(p), x[:, :, ::-1])

    def test_relu_every_special_value_at_every_length(self):
        # Lengths 1..40 put each value both in a vector loop and in the
        # scalar tail loop of the elementwise kernels.
        for n in range(1, 41):
            x = np.resize(np.array(SPECIAL_BITS, dtype=np.uint32), (1, n))
            assert_layers_agree(ReLU(), RefReLU(), x.view(np.float32))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 20), st.data())
    def test_cross_entropy(self, k, data):
        logits = data.draw(special_input(0, 1, channels=(k,)))
        n = logits.shape[0]
        labels = data.draw(arrays(np.int64, (n,), elements=st.integers(-k, k - 1)))
        new, ref = CrossEntropyLoss(), RefCrossEntropy()
        assert_same_loss(new.forward(logits, labels), ref.forward(logits, labels))
        # float labels truncate alike
        assert_same_loss(new.forward(logits, labels + 0.25),
                         ref.forward(logits, labels + 0.25))
        if n:
            bad = labels.copy()
            bad[data.draw(st.integers(0, n - 1))] = data.draw(
                st.sampled_from([k, k + 3, -k - 1])
            )
            with pytest.raises(IndexError):
                ref.forward(logits, bad)
            with pytest.raises(IndexError):
                new.forward(logits, bad)

    def test_cross_entropy_broadcast_and_onehot_targets(self):
        logits = RNG.standard_normal((3, 5)).astype(np.float32)
        new, ref = CrossEntropyLoss(), RefCrossEntropy()
        for target in (np.array([2]), np.eye(5)[[0, 4, 1]], np.eye(5)[[3]]):
            assert_same_loss(new.forward(logits, target), ref.forward(logits, target))

    def test_tc1_train_batch(self):
        # Several SGD steps of tc1 (dropout on, momentum carried) through
        # the rewritten kernels and through a replica built from the
        # oracles: the same loss, gradients and weights after every step.
        from repro.apps.registry import TC1

        x_train, y_train = TC1.dataset(scale=0.05, seed=0)[:2]
        model, ref = TC1.build_model(), TC1.build_model()
        oracles = {Conv1D: RefConv1D, MaxPool1D: RefMaxPool1D, ReLU: RefReLU,
                   Dense: RefDense}
        for layer in ref.layers:
            layer.__class__ = oracles.get(type(layer), type(layer))
        ref.loss.__class__ = RefCrossEntropy
        for step in range(4):
            batch = slice(16 * step, 16 * step + 16)
            assert_same_loss(model.train_batch(x_train[batch], y_train[batch]),
                             ref.train_batch(x_train[batch], y_train[batch]))
            for layer, twin in zip(model.layers, ref.layers):
                for pname in layer.params:
                    assert_same_bits(layer.params[pname], twin.params[pname])
                    assert_same_bits(layer.grads[pname], twin.grads[pname])
