"""The IPP facade: warm-up losses in, near-optimal schedule out.

Combines the pieces of §4.3 end-to-end:

1. fit the TLP on the warm-up losses (curve-family selection by MSE);
2. derive the timing parameters ``t_p`` / ``t_c`` from the checkpoint
   size and the chosen transfer strategy's bandwidths;
3. run the requested algorithm (fixed-interval or greedy) to produce a
   :class:`~repro.core.predictor.schedules.Schedule`.

The predictor slot is pluggable: pass ``loss_pred`` to bypass the TLP
with a custom model of training quality (paper design objective 1).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.errors import ScheduleError
from repro.core.predictor.cilp import CILParams, CILPredictor
from repro.core.predictor.schedules import (
    Schedule,
    best_greedy_schedule,
    epoch_schedule,
    fixed_interval_schedule,
    greedy_schedule,
    warmup_threshold,
)
from repro.core.predictor.tlp import TrainingLossPredictor, fit_window

__all__ = ["InferencePerformancePredictor"]


class InferencePerformancePredictor:
    """Find a near-optimal checkpoint schedule before training finishes."""

    def __init__(
        self,
        params: CILParams,
        *,
        loss_pred: Optional[Callable[[float], float]] = None,
    ):
        self.params = params
        self._external_pred = loss_pred
        self.horizon: Optional[float] = None
        self.tlp: Optional[TrainingLossPredictor] = None
        self._warmup_losses: Optional[Sequence[float]] = None
        self._warmup_end = 0

    # ------------------------------------------------------------------
    def observe_warmup(
        self,
        warmup_losses: Sequence[float],
        start_iteration: int = 1,
        horizon: Optional[float] = None,
    ) -> "InferencePerformancePredictor":
        """Fit the TLP on warm-up losses observed from ``start_iteration``.

        The fit window follows :func:`~repro.core.predictor.tlp.fit_window`
        (initial transient skipped, losses smoothed).  ``horizon`` — the
        end-of-training iteration, when known — enables the TLP's
        plausibility filter.
        """
        losses = list(warmup_losses)
        self._warmup_losses = losses
        self._warmup_end = start_iteration + len(losses) - 1 if losses else 0
        self.horizon = horizon
        if self._external_pred is None:
            self.tlp, _ = fit_window(losses, start_iteration, horizon)
        return self

    @property
    def loss_pred(self) -> Callable[[float], float]:
        if self._external_pred is not None:
            return self._external_pred
        if self.tlp is None:
            raise ScheduleError("IPP: call observe_warmup() first")
        return self.tlp.predict_scalar

    def cil_predictor(self) -> CILPredictor:
        """Closed-form Eq. 2 predictor sharing this IPP's TLP and params."""
        return CILPredictor(self.loss_pred, self.params)

    # ------------------------------------------------------------------
    def schedule(
        self,
        algorithm: str,
        *,
        end_iter: int,
        total_infers: int,
        start_iter: Optional[int] = None,
        iters_per_epoch: Optional[int] = None,
        max_interval: Optional[int] = None,
        threshold: Optional[float] = None,
        threshold_scale: float = 1.0,
    ) -> Schedule:
        """Compute a checkpoint schedule with the chosen algorithm.

        ``algorithm``: ``"epoch"`` (baseline; needs ``iters_per_epoch``),
        ``"fixed"`` (Algorithm 2), or ``"greedy"`` (Algorithm 3; the
        threshold defaults to the warm-up mean+std rule).
        """
        s_iter = self._warmup_end if start_iter is None else start_iter
        if algorithm == "epoch":
            if iters_per_epoch is None:
                raise ScheduleError("epoch schedule needs iters_per_epoch")
            return epoch_schedule(s_iter, end_iter, iters_per_epoch)
        if algorithm == "fixed":
            return fixed_interval_schedule(
                s_iter,
                end_iter,
                total_infers,
                self.loss_pred,
                self.params,
                max_interval=max_interval,
            )
        if algorithm == "greedy":
            if threshold is not None:
                # Paper-exact Algorithm 3 with an explicit threshold.
                return greedy_schedule(
                    s_iter,
                    end_iter,
                    total_infers,
                    threshold,
                    self.loss_pred,
                    self.params,
                )
            if not self._warmup_losses:
                raise ScheduleError(
                    "greedy schedule needs warm-up losses or an explicit "
                    "threshold"
                )
            # The paper derives the threshold scale from consecutive
            # warm-up loss deltas; we apply the rule to the *fitted*
            # curve's deltas (comparable smooth scale) and let the CILP
            # pick the best multiplier, Eq. 3-style.
            fitted = [
                self.loss_pred(i)
                for i in range(
                    self._warmup_end - len(self._warmup_losses) + 1,
                    self._warmup_end + 1,
                )
            ]
            base = warmup_threshold(fitted, scale=threshold_scale)
            return best_greedy_schedule(
                s_iter, end_iter, total_infers, base, self.loss_pred, self.params
            )
        raise ScheduleError(f"unknown schedule algorithm {algorithm!r}")
