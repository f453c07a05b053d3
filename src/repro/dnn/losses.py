"""Loss functions with analytic gradients.

The paper measures inference quality with cross-entropy for the CANDLE
classifiers and mean absolute error for PtychoNN (§5.2); both live here,
plus MSE which the learning-curve fitter uses for model selection.
"""

from __future__ import annotations


import numpy as np

from repro.errors import ConfigurationError

__all__ = ["Loss", "CrossEntropyLoss", "MSELoss", "MAELoss"]

#: Keeps ``log`` finite where a softmax probability underflows to 0.
_EPS = 1e-12


class Loss:
    """Base contract: ``forward`` returns a scalar; ``backward`` the grad."""

    name = "loss"

    def forward(self, pred: np.ndarray, target: np.ndarray) -> float:
        raise NotImplementedError

    def backward(self, pred: np.ndarray, target: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, pred: np.ndarray, target: np.ndarray) -> float:
        return self.forward(pred, target)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


class CrossEntropyLoss(Loss):
    """Softmax cross-entropy over integer class labels.

    ``pred`` are raw logits ``(N, K)``; ``target`` is either integer labels
    ``(N,)`` or a one-hot matrix ``(N, K)``.  The backward pass returns the
    fused softmax-CE gradient ``(softmax(pred) - onehot) / N``.
    """

    name = "cross_entropy"

    def _onehot(self, target: np.ndarray, k: int) -> np.ndarray:
        if target.ndim == 2:
            return target
        out = np.zeros((target.shape[0], k), dtype=np.float64)
        out[np.arange(target.shape[0]), target.astype(int)] = 1.0
        return out

    def forward(self, pred, target):
        target = np.asarray(target)
        n = pred.shape[0]
        if pred.ndim == 2 and target.shape == (n,) and n:
            loss = self._gathered(pred, target)
            if loss == loss:
                return loss
            # A NaN loss: which NaN (sign, payload) the one-hot sum below
            # carries depends on the whole row, so it decides.
        probs = softmax(pred.astype(np.float64))
        onehot = self._onehot(target, pred.shape[-1])
        per_sample = -(onehot * np.log(probs + _EPS)).sum(axis=-1)
        return float(per_sample.mean())

    @staticmethod
    def _gathered(pred: np.ndarray, labels: np.ndarray) -> float:
        """The mean cross-entropy over one label per row, gathering each
        row's target probability instead of summing a one-hot product.

        A one-hot row sum adds only zeros (0 * log(p)) to the one term,
        and negating before or after a sum rounds alike, so a finite
        value is the one-hot formula's bit for bit; the softmax and the
        mean are spelled as the reductions they run.  Indexing with the
        row numbers keeps an out-of-range label the IndexError it was
        (and a negative one wrapping, as it did).
        """
        z = pred.astype(np.float64)
        e = np.exp(z - np.maximum.reduce(z, axis=-1, keepdims=True))
        rows = np.arange(pred.shape[0])
        picked = e[rows, labels.astype(int, copy=False)] / np.add.reduce(e, axis=-1)
        return float(-np.add.reduce(np.log(picked + _EPS)) / pred.shape[0])

    def backward(self, pred, target):
        probs = softmax(pred.astype(np.float64))
        onehot = self._onehot(np.asarray(target), pred.shape[-1])
        return ((probs - onehot) / pred.shape[0]).astype(np.float32)

    @staticmethod
    def accuracy(pred: np.ndarray, target: np.ndarray) -> float:
        labels = target.argmax(axis=-1) if np.asarray(target).ndim == 2 else target
        return float((pred.argmax(axis=-1) == np.asarray(labels)).mean())


class MSELoss(Loss):
    """Mean squared error over all elements."""

    name = "mse"

    def forward(self, pred, target):
        diff = pred.astype(np.float64) - target
        return float(np.mean(diff * diff))

    def backward(self, pred, target):
        n = pred.size
        return (2.0 * (pred.astype(np.float64) - target) / n).astype(np.float32)


class MAELoss(Loss):
    """Mean absolute error (PtychoNN's inference-quality metric)."""

    name = "mae"

    def forward(self, pred, target):
        return float(np.mean(np.abs(pred.astype(np.float64) - target)))

    def backward(self, pred, target):
        n = pred.size
        return (np.sign(pred.astype(np.float64) - target) / n).astype(np.float32)


def get_loss(name: str) -> Loss:
    """Resolve a loss by name (used by app registry / config files)."""
    table = {
        "cross_entropy": CrossEntropyLoss,
        "mse": MSELoss,
        "mae": MAELoss,
    }
    try:
        return table[name]()
    except KeyError:
        raise ConfigurationError(f"unknown loss {name!r}") from None
