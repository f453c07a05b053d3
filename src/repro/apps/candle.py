"""CANDLE Pilot1 benchmark models: NT3 and TC1.

Both are 1-D convolutional classifiers over expression profiles — "multiple
1D convolutional layers interleaved with pooling layers followed by final
dense layers", trained with SGD (paper §5.2).  The architectures here keep
that shape at laptop scale; the paper-scale checkpoint sizes live in the
app registry as virtual sizes for the hardware model.
"""

from __future__ import annotations

from repro.dnn.layers import (
    Conv1D,
    Dense,
    Dropout,
    Flatten,
    MaxPool1D,
    ReLU,
)
from repro.dnn.losses import CrossEntropyLoss
from repro.dnn.models import Sequential
from repro.dnn.optimizers import SGD

__all__ = ["build_nt3", "build_tc1"]


def _conv_classifier(
    name: str,
    n_classes: int,
    length: int,
    seed: int,
    dense_units: int,
    lr: float = 0.03,
    decay: float = 0.008,
) -> Sequential:
    model = Sequential(
        [
            Conv1D(16, 5, padding="valid", name=f"{name}_conv1"),
            ReLU(name=f"{name}_relu1"),
            MaxPool1D(2, name=f"{name}_pool1"),
            Conv1D(32, 5, padding="valid", name=f"{name}_conv2"),
            ReLU(name=f"{name}_relu2"),
            MaxPool1D(2, name=f"{name}_pool2"),
            Flatten(name=f"{name}_flatten"),
            Dense(dense_units, name=f"{name}_dense1"),
            ReLU(name=f"{name}_relu3"),
            Dropout(0.1, name=f"{name}_dropout", seed=seed + 7),
            Dense(n_classes, name=f"{name}_logits"),
        ],
        input_shape=(length, 1),
        name=name,
        seed=seed,
    )
    # Inverse-time lr decay (standard in the CANDLE Pilot1 recipes) shapes
    # the loss curve into the decay-to-asymptote form the paper's
    # learning-curve predictor assumes: steep early improvement, a genuine
    # plateau in the last few epochs.
    model.compile(SGD(lr=lr, momentum=0.9, decay=decay), CrossEntropyLoss())
    return model


def build_nt3(length: int = 64, seed: int = 101) -> Sequential:
    """NT3: normal-vs-tumor binary classifier (2 classes, SGD).

    The 7-epoch budget is short, so NT3 uses a hotter initial rate and
    stronger decay than TC1 to plateau within the run.
    """
    return _conv_classifier(
        "nt3", n_classes=2, length=length, seed=seed, dense_units=64,
        lr=0.05, decay=0.02,
    )


def build_tc1(length: int = 64, seed: int = 202) -> Sequential:
    """TC1: 18-way balanced tumor-type classifier (SGD)."""
    return _conv_classifier("tc1", n_classes=18, length=length, seed=seed, dense_units=96)
