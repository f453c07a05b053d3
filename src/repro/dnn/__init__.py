"""A small numpy DNN framework standing in for TensorFlow-2.9.

The paper trains CANDLE NT3/TC1 (1-D convolutional classifiers) and
PtychoNN (a convolutional encoder–decoder) with ``model.fit`` plus a custom
checkpoint callback.  Viper only needs three things from the framework:

1. genuine, convergent training-loss curves at *iteration* granularity,
2. a callback hook after every training batch,
3. a ``state_dict`` of named tensors to checkpoint.

This package provides exactly that: layers with correct forward/backward
passes, SGD/Adam optimizers, cross-entropy/MSE/MAE losses, a
``Sequential.fit`` training loop with a Keras-style callback list, and
binary serializers for checkpoints.
"""

from repro.dnn.layers import (
    Conv1D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool1D,
    MaxPool2D,
    ReLU,
    UpSampling2D,
)
from repro.dnn.losses import CrossEntropyLoss, Loss, MAELoss, MSELoss
from repro.dnn.models import Sequential
from repro.dnn.optimizers import SGD, Adam, Optimizer
from repro.dnn.training import Callback, History
from repro.dnn.serialization import (
    H5LikeSerializer,
    Serializer,
    ViperSerializer,
    state_dict_nbytes,
)

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
    "Loss",
    "CrossEntropyLoss",
    "MSELoss",
    "MAELoss",
    "Optimizer",
    "SGD",
    "Adam",
    "Sequential",
    "Callback",
    "History",
    "Serializer",
    "ViperSerializer",
    "H5LikeSerializer",
    "state_dict_nbytes",
]
