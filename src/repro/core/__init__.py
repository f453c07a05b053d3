"""Viper core: the paper's primary contribution.

Four major components (paper Fig. 3):

- :mod:`repro.core.callback` — the ``CheckpointCallback`` added to
  ``model.fit()``, tracking per-iteration training quality and triggering
  model updates at scheduled iterations.
- :mod:`repro.core.predictor` — the Inference Performance Predictor (IPP):
  learning-curve fitting (TLP), cumulative-inference-loss prediction
  (CILP), and the fixed-interval / greedy schedule search algorithms.
- :mod:`repro.core.transfer` — the memory-first Model Weights Handler:
  transfer-strategy selection, sync/async capture, GPU-to-GPU and
  Host-to-Host channels, PFS fallback, background flush, and the
  consumer-side double buffer.
- :mod:`repro.core.notification` — the publish-subscribe module that
  replaces repository polling.

:mod:`repro.core.api` exposes the two-call public API from the paper's
Figure 4: ``save_weights()`` and ``load_weights()``.
"""
