"""Checkpoint Frequency Adapter: online schedule adaptation.

The paper's architecture (Fig. 3, "Performance Modeling") pairs the
inference performance estimator with a *Checkpoint Frequency Adapter*
whose job is to "get feedback and dynamically adjust the model checkpoint
frequency".  This module implements that component:

- the adapter watches every iteration's training loss (the Checkpoint
  Callback feeds it);
- it keeps a trailing-window smoothed estimate of the current training
  quality;
- it triggers a checkpoint when the smoothed loss has improved by more
  than the current threshold since the last checkpoint — Algorithm 3's
  decision rule, applied to *observed* rather than extrapolated loss;
- periodically (each epoch by default) it refits the TLP on everything
  observed so far and re-runs the CILP threshold sweep over the remaining
  horizon, so the threshold tracks the actual convergence rate instead of
  relying on a single warm-up extrapolation.

Compared to the purely predictive Algorithm 3 (available as
``greedy_schedule``), the adapter is robust to learning curves whose
post-warm-up shape the warm-up fit cannot pin down — the situation the
paper's "training may not converge at the same rate during the runtime"
motivation describes.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

import numpy as np

from repro.errors import FitError, ScheduleError
from repro.core.predictor.cilp import CILParams
from repro.core.predictor.schedules import best_greedy_schedule, warmup_threshold
from repro.core.predictor.tlp import SMOOTHING_WINDOW, fit_window

__all__ = ["CheckpointFrequencyAdapter"]


class CheckpointFrequencyAdapter:
    """Online greedy checkpoint decisions with periodic threshold refits."""

    def __init__(
        self,
        params: CILParams,
        *,
        warmup_iters: int,
        end_iter: int,
        total_infers: int,
        refit_every: Optional[int] = None,
    ):
        if warmup_iters < 4:
            raise ScheduleError("adapter needs a warm-up of at least 4 iterations")
        if end_iter <= warmup_iters:
            raise ScheduleError("end_iter must exceed warmup_iters")
        if total_infers <= 0:
            raise ScheduleError("total_infers must be positive")
        if refit_every is not None and refit_every <= 0:
            raise ScheduleError("refit_every must be positive")
        self.params = params
        self.warmup_iters = warmup_iters
        self.end_iter = end_iter
        self.total_infers = total_infers
        self.refit_every = (
            refit_every if refit_every is not None else max(warmup_iters // 2, 16)
        )

        self._losses: List[float] = []
        self._window: Deque[float] = deque(maxlen=SMOOTHING_WINDOW)
        self.threshold: float = float("inf")   # no checkpoints before warm-up
        self.noise_floor: float = 0.0
        # Never checkpoint faster than the stall can amortize over
        # training progress: at least a few iterations apart.
        self.min_spacing = max(2, int(params.t_p / params.t_train) + 1)
        self._last_ckpt_loss: Optional[float] = None
        self._last_ckpt_iter = 0
        self._last_refit = 0
        self.checkpoints: List[int] = []
        self.refits = 0

    # ------------------------------------------------------------------
    @property
    def smoothed_loss(self) -> float:
        if not self._window:
            raise ScheduleError("no losses observed yet")
        return float(np.mean(self._window))

    def observe(self, iteration: int, loss: float) -> bool:
        """Record one iteration's loss; True means "checkpoint now".

        ``iteration`` is the global 1-based training iteration; calls must
        be in order.  The caller performs the checkpoint when True is
        returned (the adapter records it for interval bookkeeping).
        """
        if iteration != len(self._losses) + 1:
            raise ScheduleError(
                f"out-of-order observation: iteration {iteration}, "
                f"expected {len(self._losses) + 1}"
            )
        self._losses.append(float(loss))
        self._window.append(float(loss))

        if iteration < self.warmup_iters:
            return False
        if iteration == self.warmup_iters:
            self._refit(iteration)
            # The warm-up checkpoint itself is the caller's save_initial.
            self._last_ckpt_loss = self.smoothed_loss
            self._last_ckpt_iter = iteration
            return False
        if iteration - self._last_refit >= self.refit_every:
            self._refit(iteration)

        if iteration - self._last_ckpt_iter < self.min_spacing:
            return False
        current = self.smoothed_loss
        effective = max(self.threshold, self.noise_floor)
        if (
            self._last_ckpt_loss is not None
            and current < self._last_ckpt_loss
            and (self._last_ckpt_loss - current) > effective
        ):
            self.checkpoints.append(iteration)
            self._last_ckpt_loss = current
            self._last_ckpt_iter = iteration
            return True
        return False

    # ------------------------------------------------------------------
    def _refit(self, iteration: int) -> None:
        """Refit the TLP on all observations; re-tune the threshold."""
        self._last_refit = iteration
        if iteration >= self.end_iter:
            return  # nothing left to schedule
        losses = self._losses
        try:
            tlp, skip = fit_window(losses, horizon=self.end_iter)
        except FitError:
            return  # keep the previous threshold
        # Noise floor: the trailing-mean estimator wobbles by roughly the
        # residual std of observed (smoothed) losses around the fitted
        # curve, scaled down by the window averaging.  Improvements below
        # ~2 wobbles are indistinguishable from noise — never checkpoint
        # on them.
        recent_lo = max(skip, len(losses) - 4 * self.refit_every)
        obs = np.asarray(losses[recent_lo:], dtype=np.float64)
        fit_vals = tlp.predict(
            np.arange(recent_lo + 1, len(losses) + 1, dtype=np.float64)
        )
        resid_std = float(np.std(obs - fit_vals))
        self.noise_floor = 2.0 * resid_std / np.sqrt(max(len(self._window), 1))
        # Base threshold: the warm-up mean+std rule over the fitted curve's
        # most recent stretch (comparable smooth scale).
        recent = max(iteration - self.refit_every, skip + 1)
        fitted = tlp.predict(np.arange(recent, iteration + 1, dtype=np.float64))
        try:
            base = warmup_threshold(fitted)
        except ScheduleError:
            return
        if base <= 0:
            base = 1e-12
        # Remaining serving demand: approximate elapsed serving time by the
        # training wall time so far (training and serving run in parallel).
        elapsed = iteration * self.params.t_train + len(self.checkpoints) * self.params.t_p
        served = int(elapsed / self.params.t_infer)
        remaining = max(self.total_infers - served, 1)
        schedule = best_greedy_schedule(
            iteration,
            self.end_iter,
            remaining,
            base,
            lambda i: max(0.0, float(tlp.predict_scalar(i))),
            self.params,
        )
        if schedule.threshold is not None and schedule.num_checkpoints:
            self.threshold = float(schedule.threshold)
            self.refits += 1
