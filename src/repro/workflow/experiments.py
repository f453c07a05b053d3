"""High-level experiment drivers used by the benchmark harness.

These functions glue the pieces into the paper's experiments:

- :func:`measured_loss_curve` — actually train the app's model on its
  synthetic dataset and return the per-iteration loss curve, stretched to
  the paper-scale iteration count when the dataset was scaled down.
- :func:`make_cil_params` — derive Algorithm 1's timing constants
  (``t_train``, ``t_p``, ``t_c``, ``t_infer``) from an app profile, a
  hardware profile, and a transfer strategy.
- :func:`schedules_for_app` — compute the three schedules §5.4 compares:
  epoch baseline, fixed-interval (Alg. 2), greedy adaptive (Alg. 3), with
  the TLP fitted on the warm-up portion of the measured curve only.
- :func:`run_schedule_comparison` — Fig. 10 / Table 1: coupled runs of
  all three schedules over the same measured curve.
- :func:`run_strategy_comparison` — Fig. 9: coupled runs at the epoch
  interval across GPU / Host / PFS strategies.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.errors import WorkflowError
from repro.substrates.profiles import POLARIS, HardwareProfile
from repro.dnn.serialization import Serializer, ViperSerializer
from repro.apps.registry import AppProfile
from repro.core.predictor.adapter import CheckpointFrequencyAdapter
from repro.core.predictor.cilp import CILParams
from repro.core.predictor.ipp import InferencePerformancePredictor
from repro.core.predictor.schedules import Schedule, epoch_schedule
from repro.core.predictor.tlp import smooth_losses
from repro.core.transfer.strategies import (
    CaptureMode,
    TransferStrategy,
    compute_timings,
)
from repro.workflow.runner import CoupledRunConfig, WorkflowResult, run_coupled

__all__ = [
    "measured_loss_curve",
    "stretch_curve",
    "make_cil_params",
    "schedules_for_app",
    "run_schedule_comparison",
    "run_strategy_comparison",
]


def stretch_curve(losses: Sequence[float], total_iters: int) -> np.ndarray:
    """Resample a measured loss curve onto ``total_iters`` iterations.

    Used when the synthetic dataset was scaled down: the *shape* of the
    measured convergence is preserved while the iteration axis matches
    the paper-scale geometry.
    """
    y = np.asarray(list(losses), dtype=np.float64)
    if y.size < 2:
        raise WorkflowError("need >= 2 measured losses to stretch")
    if total_iters < 2:
        raise WorkflowError("total_iters must be >= 2")
    src = np.linspace(1.0, float(total_iters), y.size)
    dst = np.arange(1, total_iters + 1, dtype=np.float64)
    return np.interp(dst, src, y)


def measured_loss_curve(
    app: AppProfile,
    *,
    scale: float = 1.0,
    seed: int = 0,
    epochs: Optional[int] = None,
    smooth: int = 31,
) -> np.ndarray:
    """Train the app's model for its baseline epoch budget; return the
    per-iteration training-loss curve at paper-scale iteration indexing.

    ``smooth`` applies a centered running mean to the raw mini-batch
    losses: the raw per-batch loss is a noisy estimate of model quality,
    and the paper's assumption 2 equates a checkpoint's *training quality*
    (not one batch's luck) with its inference quality.
    """
    model = app.build_model()
    x, y, _xt, _yt = app.dataset(scale=scale, seed=seed)
    n_epochs = app.epochs if epochs is None else epochs
    history = model.fit(
        x, y, epochs=n_epochs, batch_size=app.batch_size, seed=seed
    )
    curve = np.asarray(history.iteration_loss, dtype=np.float64)
    if smooth > 1:
        curve = smooth_losses(curve, smooth)
    total = app.iters_per_epoch * n_epochs
    if curve.size == total:
        return curve
    return stretch_curve(curve, total)


def make_cil_params(
    app: AppProfile,
    strategy: TransferStrategy,
    mode: CaptureMode = CaptureMode.ASYNC,
    serializer: Optional[Serializer] = None,
    profile: HardwareProfile = POLARIS,
) -> CILParams:
    """Algorithm 1's constants for this app on this transfer path."""
    ser = serializer if serializer is not None else ViperSerializer()
    timings = compute_timings(
        profile, ser, strategy, mode, app.checkpoint_bytes, app.checkpoint_tensors
    )
    return CILParams(
        t_train=app.timing.t_train,
        t_p=timings.stall.total,
        t_c=timings.load.total,
        t_infer=app.timing.t_infer,
    )


def schedules_for_app(
    app: AppProfile,
    loss_curve: Sequence[float],
    *,
    strategy: TransferStrategy = TransferStrategy.GPU_TO_GPU,
    mode: CaptureMode = CaptureMode.ASYNC,
    serializer: Optional[Serializer] = None,
    profile: HardwareProfile = POLARIS,
    max_interval: Optional[int] = None,
) -> Dict[str, Schedule]:
    """The three §5.4 schedules, with the IPP fitted on warm-up data only."""
    warmup = int(app.warmup_iters)
    curve = np.asarray(list(loss_curve), dtype=np.float64)
    if curve.size < warmup:
        raise WorkflowError(
            f"loss curve ({curve.size}) shorter than warm-up ({warmup})"
        )
    params = make_cil_params(app, strategy, mode, serializer, profile)
    ipp = InferencePerformancePredictor(params)
    ipp.observe_warmup(curve[:warmup], start_iteration=1, horizon=app.total_iters)

    end_iter = app.total_iters
    total_infers = app.total_inferences
    return {
        "baseline": epoch_schedule(warmup, end_iter, app.iters_per_epoch),
        "fixed": ipp.schedule(
            "fixed",
            end_iter=end_iter,
            total_infers=total_infers,
            max_interval=max_interval,
        ),
        "adaptive": ipp.schedule(
            "greedy", end_iter=end_iter, total_infers=total_infers
        ),
    }


def make_adapter(
    app: AppProfile,
    *,
    strategy: TransferStrategy = TransferStrategy.GPU_TO_GPU,
    mode: CaptureMode = CaptureMode.ASYNC,
    serializer: Optional[Serializer] = None,
    profile: HardwareProfile = POLARIS,
) -> CheckpointFrequencyAdapter:
    """An online Checkpoint Frequency Adapter configured for this app."""
    params = make_cil_params(app, strategy, mode, serializer, profile)
    return CheckpointFrequencyAdapter(
        params,
        warmup_iters=app.warmup_iters,
        end_iter=app.total_iters,
        total_infers=app.total_inferences,
        refit_every=app.iters_per_epoch,
    )


def run_schedule_comparison(
    app: AppProfile,
    loss_curve: Sequence[float],
    *,
    strategy: TransferStrategy = TransferStrategy.GPU_TO_GPU,
    mode: CaptureMode = CaptureMode.ASYNC,
    serializer: Optional[Serializer] = None,
    profile: HardwareProfile = POLARIS,
    max_interval: Optional[int] = None,
    adaptive_online: bool = True,
) -> Dict[str, WorkflowResult]:
    """Fig. 10 / Table 1: coupled runs of baseline vs fixed vs adaptive.

    ``adaptive_online=True`` (default) runs the adaptive schedule through
    the Checkpoint Frequency Adapter (threshold re-tuned from observed
    losses each epoch — the paper's Fig. 3 adapter component);
    ``False`` uses the purely predictive Algorithm 3 schedule computed
    once from the warm-up fit.
    """
    schedules = schedules_for_app(
        app,
        loss_curve,
        strategy=strategy,
        mode=mode,
        serializer=serializer,
        profile=profile,
        max_interval=max_interval,
    )
    results: Dict[str, WorkflowResult] = {}
    for kind, schedule in schedules.items():
        adapter = None
        if kind == "adaptive" and adaptive_online:
            adapter = make_adapter(
                app,
                strategy=strategy,
                mode=mode,
                serializer=serializer,
                profile=profile,
            )
            schedule = Schedule(
                kind="adaptive",
                iterations=(),
                start_iter=schedule.start_iter,
                end_iter=schedule.end_iter,
            )
        config = CoupledRunConfig(
            app=app,
            schedule=schedule,
            loss_curve=loss_curve,
            strategy=strategy,
            mode=mode,
            profile=profile,
            adapter=adapter,
        )
        if serializer is not None:
            config.serializer = serializer
        results[kind] = run_coupled(config)
    return results


def run_strategy_comparison(
    app: AppProfile,
    loss_curve: Sequence[float],
    *,
    profile: HardwareProfile = POLARIS,
    serializer: Optional[Serializer] = None,
    modes: Optional[Dict[TransferStrategy, CaptureMode]] = None,
) -> Dict[str, WorkflowResult]:
    """Fig. 9: epoch-boundary updates across GPU / Host / PFS strategies.

    As in the paper's setup, the memory strategies capture asynchronously
    while the PFS path writes synchronously (the classic h5py-callback
    behaviour the figure contrasts against).
    """
    chosen_modes = {
        TransferStrategy.GPU_TO_GPU: CaptureMode.ASYNC,
        TransferStrategy.HOST_TO_HOST: CaptureMode.ASYNC,
        TransferStrategy.PFS: CaptureMode.SYNC,
    }
    if modes:
        chosen_modes.update(modes)
    schedule = epoch_schedule(
        app.warmup_iters, app.total_iters, app.iters_per_epoch
    )
    results: Dict[str, WorkflowResult] = {}
    for strategy, mode in chosen_modes.items():
        config = CoupledRunConfig(
            app=app,
            schedule=schedule,
            loss_curve=loss_curve,
            strategy=strategy,
            mode=mode,
            profile=profile,
        )
        if serializer is not None:
            config.serializer = serializer
        results[strategy.value] = run_coupled(config)
    return results
