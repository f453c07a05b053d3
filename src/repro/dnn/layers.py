"""Neural-network layers with correct forward/backward passes.

Conventions:

- Data layout is channels-last: 1-D inputs are ``(N, L, C)``, 2-D inputs
  are ``(N, H, W, C)`` — matching the TensorFlow models the paper uses.
- Each layer exposes ``forward(x, training)`` and ``backward(dout)``;
  ``backward`` stores parameter gradients on the layer and returns the
  gradient w.r.t. the input.
- Parameters are named ``<layer_name>/<param>`` in the model state dict.

A convolution forward is one strided im2col plus one GEMM: the window
view has the shape and strides ``sliding_window_view`` would give, built
by the ``np.ndarray`` constructor over a contiguous input (``as_strided``
otherwise; both skip the argument checks, the constructor also skips
``as_strided``'s Python-level wrapping), transposed and reshaped into one
im2col matrix and multiplied with the kernel as a ``(K*C, O)`` matrix by
one ``np.dot`` -- the arithmetic ``np.tensordot`` does, minus its
overhead, so the outputs are bit-for-bit those of ``sliding_window_view``
and ``tensordot``.  The window view is kept for ``backward``, whose
input-gradient loop runs over the kernel taps only (a handful of
iterations).  A max-pool forward pays only for the ``max``: ``backward``
takes the argmax over the pooled windows, so an inference forward never
computes one.

Every forward here runs a request at batch 1, where numpy's per-call
dispatch costs more than the arithmetic, so each kernel makes as few
calls as gives the same bits: biases are added in place into the fresh
GEMM output (the parameters of a layer share one dtype), ``ReLU`` is an
add and an ``fmax``, and ``MaxPool1D`` folds ``np.maximum`` over its pool
positions.
Training runs the same forwards.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.errors import ConfigurationError
from repro.dnn import initializers

__all__ = [
    "Layer",
    "Dense",
    "Conv1D",
    "Conv2D",
    "MaxPool1D",
    "MaxPool2D",
    "UpSampling2D",
    "Flatten",
    "Dropout",
    "ReLU",
]

_counters = itertools.count(1)


def _window_view(x: np.ndarray, shape, strides) -> np.ndarray:
    """A strided view of ``x`` (no copy), kept by the layer and only read.

    Over a contiguous ``x`` it is the ``np.ndarray`` constructor (a
    fifth of ``as_strided``'s cost, and every input a model passes
    between layers is contiguous).  A strided ``x`` keeps ``as_strided``
    rather than being copied: ``backward``'s weight-gradient sum follows
    the view's strides, so a window view of a C-order copy can give a
    gradient an ulp away from that of the input as given.
    """
    if x.flags.c_contiguous:
        return np.ndarray(shape, x.dtype, buffer=x, strides=strides)
    return as_strided(x, shape, strides, writeable=False)


class Layer:
    """Base class: parameter registry plus the forward/backward contract."""

    def __init__(self, name: Optional[str] = None):
        self.name = name or f"{type(self).__name__.lower()}_{next(_counters)}"
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}
        self.built = False
        # Frozen layers still propagate gradients but take no updates
        # (the transfer-learning / fine-tuning scenario of EvoStore).
        self.trainable = True

    # -- lifecycle ------------------------------------------------------
    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        """Allocate parameters once the input shape is known."""
        self.built = True

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Per-sample output shape given per-sample input shape."""
        return input_shape

    # -- compute --------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dout: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- utilities ------------------------------------------------------
    @property
    def num_params(self) -> int:
        return sum(int(p.size) for p in self.params.values())

    def zero_grads(self) -> None:
        for k in self.params:
            self.grads[k] = np.zeros_like(self.params[k])


class Dense(Layer):
    """Fully connected layer: ``y = x @ W + b`` over the last axis."""

    def __init__(self, units: int, name: Optional[str] = None):
        super().__init__(name)
        if units <= 0:
            raise ConfigurationError(f"{self.name}: units must be positive")
        self.units = units
        self._x: Optional[np.ndarray] = None

    def build(self, input_shape, rng):
        (in_features,) = input_shape
        self.params["W"] = initializers.glorot_uniform(
            rng, (in_features, self.units), in_features, self.units
        )
        self.params["b"] = initializers.zeros((self.units,))
        super().build(input_shape, rng)

    def output_shape(self, input_shape):
        return (self.units,)

    def forward(self, x, training=False):
        self._x = x
        y = x @ self.params["W"]
        y += self.params["b"]
        return y

    def backward(self, dout):
        x = self._x
        self.grads["W"] = x.T @ dout
        self.grads["b"] = dout.sum(axis=0)
        return dout @ self.params["W"].T


class Conv1D(Layer):
    """1-D convolution, channels-last ``(N, L, C)``, stride 1.

    ``padding`` is ``"valid"`` or ``"same"`` (odd kernel sizes only for
    ``"same"``), matching the CANDLE Pilot1 architectures.
    """

    def __init__(
        self,
        filters: int,
        kernel_size: int,
        padding: str = "valid",
        name: Optional[str] = None,
    ):
        super().__init__(name)
        if filters <= 0 or kernel_size <= 0:
            raise ConfigurationError(f"{self.name}: filters/kernel must be positive")
        if padding not in ("valid", "same"):
            raise ConfigurationError(f"{self.name}: unknown padding {padding!r}")
        if padding == "same" and kernel_size % 2 == 0:
            raise ConfigurationError(f"{self.name}: 'same' needs odd kernel size")
        self.filters = filters
        self.kernel_size = kernel_size
        self.padding = padding
        self._windows: Optional[np.ndarray] = None
        self._in_len = 0

    def _pad(self) -> int:
        return (self.kernel_size - 1) // 2 if self.padding == "same" else 0

    def build(self, input_shape, rng):
        length, channels = input_shape
        k = self.kernel_size
        self.params["W"] = initializers.he_normal(
            rng, (k, channels, self.filters), fan_in=k * channels
        )
        self.params["b"] = initializers.zeros((self.filters,))
        super().build(input_shape, rng)

    def output_shape(self, input_shape):
        length, _channels = input_shape
        if self.padding == "same":
            return (length, self.filters)
        return (length - self.kernel_size + 1, self.filters)

    def forward(self, x, training=False):
        pad = self._pad()
        self._in_len = x.shape[1]
        if pad:
            x = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
        k = self.kernel_size
        n, length, c = x.shape
        l_out = length - k + 1
        if l_out < 1:
            raise ValueError(f"{self.name}: input length {length} < kernel {k}")
        s_n, s_l, s_c = x.strides
        # windows[n, i, c, t] = x[n, i + t, c]: an (N, L_out, C, K)
        # strided view, no copy.
        windows = _window_view(x, (n, l_out, c, k), (s_n, s_l, s_c, s_l))
        self._windows = windows
        # y[n, i, o] = sum_{t,c} windows[n, i, c, t] * W[t, c, o]: im2col
        # rows (n, i) by columns (t, c), then one GEMM.
        w = self.params["W"]
        cols = windows.transpose(0, 1, 3, 2).reshape(n * l_out, k * c)
        y = np.dot(cols, w.reshape(k * c, self.filters))
        y += self.params["b"]
        return y.reshape(n, l_out, self.filters)

    def backward(self, dout):
        windows = self._windows
        k = self.kernel_size
        # dW[k, c, o] = sum_{n,i} windows[n, i, c, k] * dout[n, i, o]
        self.grads["W"] = np.tensordot(
            windows, dout, axes=([0, 1], [0, 1])
        ).transpose(1, 0, 2)
        self.grads["b"] = dout.sum(axis=(0, 1))
        # dx_padded[n, i + t, c] += dout[n, i, o] * W[t, c, o]
        pad = self._pad()
        n, l_out, _ = dout.shape
        padded_len = self._in_len + 2 * pad
        dx = np.zeros((n, padded_len, windows.shape[2]), dtype=dout.dtype)
        w = self.params["W"]
        for t in range(k):
            dx[:, t : t + l_out, :] += dout @ w[t].T
        if pad:
            dx = dx[:, pad : padded_len - pad, :]
        return dx


class Conv2D(Layer):
    """2-D convolution, channels-last ``(N, H, W, C)``, stride 1."""

    def __init__(
        self,
        filters: int,
        kernel_size: int,
        padding: str = "same",
        name: Optional[str] = None,
    ):
        super().__init__(name)
        if filters <= 0 or kernel_size <= 0:
            raise ConfigurationError(f"{self.name}: filters/kernel must be positive")
        if padding not in ("valid", "same"):
            raise ConfigurationError(f"{self.name}: unknown padding {padding!r}")
        if padding == "same" and kernel_size % 2 == 0:
            raise ConfigurationError(f"{self.name}: 'same' needs odd kernel size")
        self.filters = filters
        self.kernel_size = kernel_size
        self.padding = padding
        self._windows: Optional[np.ndarray] = None
        self._in_hw: Tuple[int, int] = (0, 0)

    def _pad(self) -> int:
        return (self.kernel_size - 1) // 2 if self.padding == "same" else 0

    def build(self, input_shape, rng):
        _h, _w, channels = input_shape
        k = self.kernel_size
        self.params["W"] = initializers.he_normal(
            rng, (k, k, channels, self.filters), fan_in=k * k * channels
        )
        self.params["b"] = initializers.zeros((self.filters,))
        super().build(input_shape, rng)

    def output_shape(self, input_shape):
        h, w, _c = input_shape
        if self.padding == "same":
            return (h, w, self.filters)
        k = self.kernel_size
        return (h - k + 1, w - k + 1, self.filters)

    def forward(self, x, training=False):
        pad = self._pad()
        self._in_hw = (x.shape[1], x.shape[2])
        if pad:
            x = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
        k = self.kernel_size
        n, h, w_in, c = x.shape
        h_out, w_out = h - k + 1, w_in - k + 1
        if h_out < 1 or w_out < 1:
            raise ValueError(f"{self.name}: input {h}x{w_in} < kernel {k}x{k}")
        s_n, s_h, s_w, s_c = x.strides
        # windows[n, i, j, c, p, q] = x[n, i + p, j + q, c]: an
        # (N, H_out, W_out, C, K, K) strided view.
        windows = _window_view(
            x, (n, h_out, w_out, c, k, k), (s_n, s_h, s_w, s_c, s_h, s_w)
        )
        self._windows = windows
        # y[n,i,j,o] = sum_{p,q,c} win[n,i,j,c,p,q] * W[p,q,c,o]: im2col
        # rows (n, i, j) by columns (p, q, c), then one GEMM.
        w = self.params["W"]
        cols = windows.transpose(0, 1, 2, 4, 5, 3).reshape(
            n * h_out * w_out, k * k * c
        )
        y = np.dot(cols, w.reshape(k * k * c, self.filters))
        y += self.params["b"]
        return y.reshape(n, h_out, w_out, self.filters)

    def backward(self, dout):
        windows = self._windows
        k = self.kernel_size
        # dW[p,q,c,o] = sum_{n,i,j} win[n,i,j,c,p,q] * dout[n,i,j,o]
        dw = np.tensordot(windows, dout, axes=([0, 1, 2], [0, 1, 2]))
        self.grads["W"] = dw.transpose(1, 2, 0, 3)
        self.grads["b"] = dout.sum(axis=(0, 1, 2))
        pad = self._pad()
        n, h_out, w_out, _ = dout.shape
        h_in, w_in = self._in_hw
        dx = np.zeros(
            (n, h_in + 2 * pad, w_in + 2 * pad, windows.shape[3]), dtype=dout.dtype
        )
        w = self.params["W"]
        for p in range(k):
            for q in range(k):
                dx[:, p : p + h_out, q : q + w_out, :] += dout @ w[p, q].T
        if pad:
            dx = dx[:, pad : pad + h_in, pad : pad + w_in, :]
        return dx


class MaxPool1D(Layer):
    """Max pooling with pool size == stride; truncates a ragged tail."""

    def __init__(self, pool_size: int = 2, name: Optional[str] = None):
        super().__init__(name)
        if pool_size <= 0:
            raise ConfigurationError(f"{self.name}: pool_size must be positive")
        self.pool_size = pool_size
        self._x: Optional[np.ndarray] = None

    def output_shape(self, input_shape):
        length, channels = input_shape
        return (length // self.pool_size, channels)

    def forward(self, x, training=False):
        p = self.pool_size
        n, length, c = x.shape
        m = length // p * p
        self._x = x
        if p == 1 or c == 1 or not x.flags.c_contiguous:
            return x[:, :m, :].reshape(n, m // p, p, c).max(axis=2)
        # Channels innermost: the reduce runs np.maximum over the p pool
        # positions in index order, one channel row at a time.  Folding
        # it that way over the strided slices gives its bits, NaN
        # payloads included, without its setup cost.  (With one channel,
        # or another layout, the reduce may run its own inner loop, which
        # can return a different NaN.)
        out = np.maximum(x[:, 0:m:p], x[:, 1:m:p])
        for j in range(2, p):
            np.maximum(out, x[:, j:m:p], out=out)
        return out

    def backward(self, dout):
        p = self.pool_size
        n, l_out, c = dout.shape
        x = self._x
        windows = x[:, : l_out * p, :].reshape(n, l_out, p, c)
        dx = np.zeros(x.shape, dtype=dout.dtype)
        # Scatter via absolute indices: a reshape of the truncated slice
        # would copy (non-contiguous) and silently drop the gradients.
        ni, li, ci = np.ogrid[:n, :l_out, :c]
        dx[ni, li * p + windows.argmax(axis=2), ci] = dout
        return dx


class MaxPool2D(Layer):
    """2-D max pooling with pool size == stride."""

    def __init__(self, pool_size: int = 2, name: Optional[str] = None):
        super().__init__(name)
        if pool_size <= 0:
            raise ConfigurationError(f"{self.name}: pool_size must be positive")
        self.pool_size = pool_size
        self._windows: Optional[np.ndarray] = None
        self._in_shape: Tuple[int, ...] = ()

    def output_shape(self, input_shape):
        h, w, c = input_shape
        p = self.pool_size
        return (h // p, w // p, c)

    def forward(self, x, training=False):
        p = self.pool_size
        n, h, w, c = x.shape
        ho, wo = h // p, w // p
        self._in_shape = x.shape
        view = x[:, : ho * p, : wo * p, :].reshape(n, ho, p, wo, p, c)
        flat = view.transpose(0, 1, 3, 2, 4, 5).reshape(n, ho, wo, p * p, c)
        self._windows = flat
        return flat.max(axis=3)

    def backward(self, dout):
        p = self.pool_size
        n, ho, wo, c = dout.shape
        dx = np.zeros(self._in_shape, dtype=dout.dtype)
        # The flat argmax indexes a (p, p) window in row-major order;
        # scatter through absolute coordinates (see MaxPool1D.backward).
        argmax = self._windows.argmax(axis=3)
        rows = argmax // p
        cols = argmax % p
        ni, hi, wi, ci = np.ogrid[:n, :ho, :wo, :c]
        dx[ni, hi * p + rows, wi * p + cols, ci] = dout
        return dx


class UpSampling2D(Layer):
    """Nearest-neighbour upsampling (the PtychoNN decoder building block)."""

    def __init__(self, factor: int = 2, name: Optional[str] = None):
        super().__init__(name)
        if factor <= 0:
            raise ConfigurationError(f"{self.name}: factor must be positive")
        self.factor = factor

    def output_shape(self, input_shape):
        h, w, c = input_shape
        return (h * self.factor, w * self.factor, c)

    def forward(self, x, training=False):
        f = self.factor
        return x.repeat(f, axis=1).repeat(f, axis=2)

    def backward(self, dout):
        f = self.factor
        n, h, w, c = dout.shape
        return dout.reshape(n, h // f, f, w // f, f, c).sum(axis=(2, 4))


class Flatten(Layer):
    """Flatten all per-sample axes to one feature vector."""

    def __init__(self, name: Optional[str] = None):
        super().__init__(name)
        self._in_shape: Tuple[int, ...] = ()

    def output_shape(self, input_shape):
        return (int(np.prod(input_shape)),)

    def forward(self, x, training=False):
        self._in_shape = x.shape
        # Not reshape(N, -1): -1 is ambiguous for an empty batch.
        return x.reshape(x.shape[0], math.prod(x.shape[1:]))

    def backward(self, dout):
        return dout.reshape(self._in_shape)


class Dropout(Layer):
    """Inverted dropout; identity outside of training."""

    def __init__(self, rate: float, name: Optional[str] = None, seed: int = 0x5EED):
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise ConfigurationError(f"{self.name}: rate must be in [0, 1)")
        self.rate = rate
        self._rng = np.random.default_rng(seed)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x, training=False):
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep).astype(x.dtype) / keep
        return x * self._mask

    def backward(self, dout):
        if self._mask is None:
            return dout
        return dout * self._mask


class ReLU(Layer):
    """Rectified linear unit: ``max(x, 0)`` elementwise.

    The forward is ``where(x > 0, x, 0.0)`` bit for bit -- +0.0 for NaN
    and for either zero -- in two cheaper calls: ``x + 0.0`` quiets a
    signaling NaN (which ``fmax``'s scalar tail loop would pass through,
    unlike its vector loop) and turns -0.0 into +0.0, then ``fmax(y, 0.0)``
    drops every NaN.  The operand order matters: ``fmax(0.0, x)`` gives
    -0.0 for x = -0.0, and ``maximum`` keeps NaN.
    """

    def __init__(self, name: Optional[str] = None):
        super().__init__(name)
        self._x: Optional[np.ndarray] = None

    def forward(self, x, training=False):
        self._x = x
        y = x + 0.0
        return np.fmax(y, 0.0, out=y)

    def backward(self, dout):
        return dout * (self._x > 0)
