"""Viper reproduction: a high-performance I/O framework for transparently
updating, storing, and transferring DNN models (ICPP 2024).

Public surface:

- :class:`repro.Viper` — the framework facade (``save_weights`` /
  ``load_weights``, paper Fig. 4) plus producer/consumer role views.
- :mod:`repro.core.predictor` — the Inference Performance Predictor:
  learning-curve fitting, CIL prediction, schedule search.
- :mod:`repro.core.transfer` — the memory-first transfer engine.
- :mod:`repro.dnn` — the numpy DNN training framework.
- :mod:`repro.apps` — CANDLE NT3/TC1 and PtychoNN workload profiles.
- :mod:`repro.serving` — inference serving (push and polling modes).
- :mod:`repro.workflow` — the coupled producer/consumer simulation that
  regenerates the paper's end-to-end results.
- :mod:`repro.substrates` — the modeled HPC hardware (tiers, links,
  nodes, simulated clock).
- :mod:`repro.resilience` — seeded fault injection and the
  retry/backoff/failover machinery of the resilient transfer path.

The names below load on first use (PEP 562), so ``import repro.dnn``
does not import the transfer engine, and ``from repro import Viper``
imports what ``Viper`` needs and nothing else.
"""

import importlib

__version__ = "1.0.0"

#: Each public name -> the module that defines it.
_DEFINED_IN = {
    "Viper": "repro.core.api",
    "ViperProducer": "repro.core.api",
    "ViperConsumer": "repro.core.api",
    "CheckpointCallback": "repro.core.callback",
    "InferencePerformancePredictor": "repro.core.predictor.ipp",
    "CaptureMode": "repro.core.transfer.strategies",
    "TransferStrategy": "repro.core.transfer.strategies",
    "FaultKind": "repro.resilience.faults",
    "FaultPlan": "repro.resilience.faults",
    "FaultRule": "repro.resilience.faults",
    "RetryPolicy": "repro.resilience.retry",
    "RolloutPolicy": "repro.rollout.policy",
    "POLARIS": "repro.substrates.profiles",
    "LAPTOP": "repro.substrates.profiles",
}

__all__ = [*_DEFINED_IN, "__version__"]


def __getattr__(name: str):
    """Import a public name's defining module on first access."""
    try:
        module = _DEFINED_IN[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
