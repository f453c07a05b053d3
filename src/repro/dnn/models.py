"""Sequential model container with a Keras-style ``fit``.

The model owns named parameters (``<layer>/<param>``), a forward/backward
pipeline across its layers, a ``state_dict`` for checkpointing, and the
training loop in :meth:`Sequential.fit` that drives the callback list —
the hook Viper's :class:`~repro.core.callback.CheckpointCallback` plugs
into, exactly as the paper attaches its callback to ``model.fit()``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.dnn.layers import Layer
from repro.dnn.losses import Loss
from repro.dnn.optimizers import Optimizer
from repro.dnn.training import Callback, History, run_fit_loop

__all__ = ["Sequential"]


class Sequential:
    """A linear stack of layers.

    Usage mirrors Keras closely enough that the paper's workflow pseudocode
    maps one-to-one::

        model = Sequential([...], input_shape=(L, C), name="tc1")
        model.compile(SGD(0.01), CrossEntropyLoss())
        model.fit(x, y, epochs=5, batch_size=20, callbacks=[ckpt_cb])
    """

    def __init__(
        self,
        layers: Sequence[Layer],
        input_shape: Tuple[int, ...],
        name: str = "model",
        seed: int = 1234,
    ):
        if not layers:
            raise ConfigurationError("model needs at least one layer")
        self.name = name
        self.layers: List[Layer] = list(layers)
        self.input_shape = tuple(input_shape)
        self.optimizer: Optional[Optimizer] = None
        self.loss: Optional[Loss] = None
        self.stop_training = False
        self._rng = np.random.default_rng(seed)
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        shape = self.input_shape
        seen = set()
        for layer in self.layers:
            if layer.name in seen:
                raise ConfigurationError(f"duplicate layer name {layer.name!r}")
            seen.add(layer.name)
            layer.build(shape, self._rng)
            shape = layer.output_shape(shape)
        self.output_shape = shape

    def compile(self, optimizer: Optimizer, loss: Loss) -> None:
        self.optimizer = optimizer
        self.loss = loss

    # ------------------------------------------------------------------
    # Parameters / checkpoint surface
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Named copy of every parameter (the checkpoint payload)."""
        out: Dict[str, np.ndarray] = {}
        for layer in self.layers:
            for pname, value in layer.params.items():
                out[f"{layer.name}/{pname}"] = value.copy()
        return out

    def load_state_dict(
        self, state: Dict[str, np.ndarray], *, copy: bool = True
    ) -> None:
        """Load parameters; shapes must match exactly.

        ``copy=True`` writes the values into the model's own arrays.
        ``copy=False`` rebinds each parameter to the given array instead
        when the array has the parameter's dtype and is aligned, so a
        consumer serving read-only views over a verified checkpoint blob
        copies nothing; the model then shares, and cannot write, those
        arrays.  A value of another dtype, or a view at an unaligned
        offset (which every predict would read slowly), is copied into
        an aligned array of the model's own, as with ``copy=True``.
        """
        own = {
            f"{layer.name}/{p}": (layer, p)
            for layer in self.layers
            for p in layer.params
        }
        missing = set(own) - set(state)
        extra = set(state) - set(own)
        if missing or extra:
            raise ConfigurationError(
                f"state dict mismatch for {self.name!r}: "
                f"missing={sorted(missing)[:3]} extra={sorted(extra)[:3]}"
            )
        for key, value in state.items():
            layer, pname = own[key]
            current = layer.params[pname]
            if current.shape != value.shape:
                raise ConfigurationError(
                    f"shape mismatch for {key}: {current.shape} vs {value.shape}"
                )
            if not copy and value.dtype == current.dtype and value.flags.aligned:
                layer.params[pname] = value
            elif current.flags.writeable:
                current[...] = value
            else:  # rebound to a read-only array by an earlier load
                layer.params[pname] = value.astype(current.dtype)

    def freeze(self, prefix: str = "") -> int:
        """Mark layers whose name starts with ``prefix`` as non-trainable
        (all layers when empty); returns how many were frozen."""
        count = 0
        for layer in self.layers:
            if layer.name.startswith(prefix):
                layer.trainable = False
                count += 1
        return count

    @property
    def num_params(self) -> int:
        return sum(layer.num_params for layer in self.layers)

    @property
    def num_tensors(self) -> int:
        return sum(len(layer.params) for layer in self.layers)

    def summary(self) -> str:
        lines = [f"Model: {self.name}  (input {self.input_shape})"]
        shape = self.input_shape
        for layer in self.layers:
            shape = layer.output_shape(shape)
            lines.append(
                f"  {layer.name:<28s} out={str(shape):<20s} "
                f"params={layer.num_params}"
            )
        lines.append(f"  total params: {self.num_params}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Compute
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Inference forward in batches of at most ``batch_size``.

        The result never shares memory with ``x``: a one-batch forward
        that hands back a view of it (``Flatten``, ``Dropout``) is copied.
        """
        if x.shape[0] <= batch_size:
            out = self.forward(x, training=False)
            return out.copy() if np.may_share_memory(out, x) else out
        outs = []
        for start in range(0, x.shape[0], batch_size):
            outs.append(self.forward(x[start : start + batch_size], training=False))
        return np.concatenate(outs, axis=0)

    def train_batch(self, x: np.ndarray, y: np.ndarray) -> float:
        """One optimizer step; returns the batch training loss.

        The batch predictions are kept on ``last_batch_pred`` so the
        training loop can derive secondary metrics (accuracy) without a
        second forward pass.
        """
        if self.optimizer is None or self.loss is None:
            raise ConfigurationError(f"model {self.name!r} is not compiled")
        pred = self.forward(x, training=True)
        self.last_batch_pred = pred
        loss_value = self.loss.forward(pred, y)
        grad = self.loss.backward(pred, y)
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        params: Dict[str, np.ndarray] = {}
        grads: Dict[str, np.ndarray] = {}
        for layer in self.layers:
            if not layer.trainable:
                continue
            for pname in layer.params:
                key = f"{layer.name}/{pname}"
                params[key] = layer.params[pname]
                grads[key] = layer.grads[pname]
        self.optimizer.step(params, grads)
        return loss_value

    def evaluate(self, x: np.ndarray, y: np.ndarray, batch_size: int = 256) -> float:
        """Mean loss over a dataset (no parameter updates)."""
        if self.loss is None:
            raise ConfigurationError(f"model {self.name!r} is not compiled")
        total = 0.0
        count = 0
        for start in range(0, x.shape[0], batch_size):
            xb = x[start : start + batch_size]
            yb = y[start : start + batch_size]
            pred = self.forward(xb, training=False)
            total += self.loss.forward(pred, yb) * xb.shape[0]
            count += xb.shape[0]
        return total / max(count, 1)

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int = 1,
        batch_size: int = 32,
        callbacks: Optional[Iterable[Callback]] = None,
        shuffle: bool = True,
        seed: int = 0,
        verbose: bool = False,
    ) -> History:
        """Mini-batch training loop with Keras-style callbacks.

        Callbacks receive iteration-granular ``on_batch_end(iteration,
        logs)`` calls with ``logs["loss"]`` — the hook the paper's
        checkpoint callback uses to track training quality per iteration.
        """
        return run_fit_loop(
            self,
            x,
            y,
            epochs=epochs,
            batch_size=batch_size,
            callbacks=list(callbacks or []),
            shuffle=shuffle,
            seed=seed,
            verbose=verbose,
        )
