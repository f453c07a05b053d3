"""Training Loss Predictor (TLP).

Fits all candidate learning-curve families on the warm-up losses and keeps
the one with minimal in-sample MSE (paper §4.3: "Viper utilizes the warm-up
stage training loss to fit those learning curve functions and selects the
most suitable one").  Raw per-iteration losses are noisy mini-batch
estimates, so the predictor optionally smooths with a running mean before
fitting — the fitted curve then tracks the underlying convergence trend the
way the paper's Figure 5 shows.

Users can substitute any object with a ``predict_scalar(iteration)``
method: the predictor slot is pluggable (paper design objective 1).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import FitError
from repro.core.predictor.curves import CurveModel, fit_all_curves

__all__ = ["TrainingLossPredictor", "fit_window", "smooth_losses"]

#: :func:`fit_window`'s running-mean width (also the adapter's trailing
#: window), the share of losses it skips, and the fewest it keeps.
SMOOTHING_WINDOW = 25
FIT_SKIP_FRACTION = 0.3
FIT_MIN_POINTS = 8


def smooth_losses(losses: Sequence[float], window: int = 0) -> np.ndarray:
    """Centered running mean with edge shrinkage; window=0 disables."""
    y = np.asarray(losses, dtype=np.float64)
    if window <= 1 or y.size == 0:
        return y
    half = window // 2
    out = np.empty_like(y)
    for i in range(y.size):
        lo = max(0, i - half)
        hi = min(y.size, i + half + 1)
        out[i] = y[lo:hi].mean()
    return out


def fit_window(
    losses: Sequence[float],
    start_iteration: int = 1,
    horizon: Optional[float] = None,
) -> Tuple["TrainingLossPredictor", int]:
    """The TLP fit the IPP and the adapter share, on losses observed from
    ``start_iteration``; returns it and the number of losses skipped.

    The first 30 % of the losses (keeping at least 8) are skipped: the
    initial optimization transient does not follow the asymptotic
    families and would bias the extrapolation (standard practice since
    Domhan et al. [7]).  The rest is smoothed and fitted with the
    plausibility ``horizon``.
    """
    n = len(losses)
    skip = max(0, min(int(n * FIT_SKIP_FRACTION), n - FIT_MIN_POINTS))
    iters = np.arange(start_iteration + skip, start_iteration + n, dtype=np.float64)
    tlp = TrainingLossPredictor(SMOOTHING_WINDOW).fit(
        losses[skip:], iters, horizon=horizon
    )
    return tlp, skip


class TrainingLossPredictor:
    """Predict training loss as a function of the training iteration.

    ``selection`` controls how the winning family is picked:

    - ``"insample"`` — minimal MSE on the whole fit window (the paper's
      stated criterion, Fig. 5);
    - ``"holdout"`` (default) — fit on the first ``1 - holdout_fraction``
      of the window, rank by MSE on the held-out tail, then refit the
      winner on the full window.  This is the extrapolation-oriented
      selection of Domhan et al. [7], which the paper builds on; it
      matters because the predictor's entire job is predicting *beyond*
      the warm-up.
    """

    def __init__(
        self,
        smoothing_window: int = 0,
        selection: str = "holdout",
        holdout_fraction: float = 0.3,
        families: Optional[Sequence[type]] = None,
    ):
        if smoothing_window < 0:
            raise FitError("smoothing window must be non-negative")
        if selection not in ("insample", "holdout"):
            raise FitError(f"unknown selection mode {selection!r}")
        if not 0.0 < holdout_fraction < 1.0:
            raise FitError("holdout_fraction must be in (0, 1)")
        self.smoothing_window = smoothing_window
        self.selection = selection
        self.holdout_fraction = holdout_fraction
        self.families = families
        self.candidates: Dict[str, CurveModel] = {}
        self.holdout_mse: Dict[str, float] = {}
        self.best: Optional[CurveModel] = None

    # ------------------------------------------------------------------
    def fit(
        self,
        warmup_losses: Sequence[float],
        iterations: Optional[Sequence[float]] = None,
        horizon: Optional[float] = None,
    ) -> "TrainingLossPredictor":
        """Fit all families on (iteration, loss) pairs from the warm-up.

        ``iterations`` defaults to ``1..len(losses)`` — the global
        iteration indexing used throughout the paper's algorithms.

        ``horizon`` is the iteration up to which the predictor will be
        asked to extrapolate (the end of training).  When given, families
        whose horizon prediction is *implausible* — collapsing below 5%
        of the last observed loss, or increasing — are excluded from
        selection unless every family is implausible.  This is the
        plausibility filtering of Domhan et al. [7].
        """
        losses = np.asarray(warmup_losses, dtype=np.float64)
        if losses.size < 4:
            raise FitError(f"need >= 4 warm-up losses to fit, got {losses.size}")
        if not np.all(np.isfinite(losses)):
            raise FitError("warm-up losses contain non-finite values")
        x = (
            np.arange(1, losses.size + 1, dtype=np.float64)
            if iterations is None
            else np.asarray(iterations, dtype=np.float64)
        )
        if x.shape != losses.shape:
            raise FitError("iterations and losses must be equal length")
        y = smooth_losses(losses, self.smoothing_window)

        if self.selection == "insample" or losses.size < 12:
            self.candidates = fit_all_curves(x, y, self.families)
            pool = self._plausible(self.candidates, x, y, horizon)
            self.best = min(pool.values(), key=lambda m: m.mse)
            return self

        split = int(round(losses.size * (1.0 - self.holdout_fraction)))
        split = min(max(split, 8), losses.size - 2)
        head = fit_all_curves(x[:split], y[:split], self.families)
        self.holdout_mse = {
            name: model.mse_on(x[split:], y[split:]) for name, model in head.items()
        }
        head_pool = self._plausible(head, x, y, horizon)
        # Refit every candidate on the full window so mse_table() reflects
        # the full warm-up; the winner must stay plausible after refit.
        self.candidates = fit_all_curves(x, y, self.families)
        full_pool = self._plausible(self.candidates, x, y, horizon)
        ranked = sorted(head_pool, key=lambda n: self.holdout_mse[n])
        self.best = None
        for name in ranked:
            if name in full_pool:
                self.best = full_pool[name]
                break
        if self.best is None:  # nothing survived both filters
            self.best = min(full_pool.values(), key=lambda m: m.mse)
        return self

    def _plausible(
        self,
        candidates: Dict[str, CurveModel],
        x: np.ndarray,
        y: np.ndarray,
        horizon: Optional[float],
    ) -> Dict[str, CurveModel]:
        """Drop families with implausible horizon extrapolations.

        A training-loss prediction should neither collapse to ~zero (the
        loss has an irreducible floor) nor rise above the current level.
        Falls back to the full candidate set if the filter empties it.
        """
        if horizon is None or horizon <= x[-1]:
            return candidates
        floor = 0.05 * max(float(y[-1]), 1e-12)
        current = float(y[-1])
        plausible = {}
        for name, model in candidates.items():
            at_horizon = model.predict_scalar(float(horizon))
            if floor <= at_horizon <= current * 1.05:
                plausible[name] = model
        return plausible if plausible else candidates

    # ------------------------------------------------------------------
    @property
    def best_name(self) -> str:
        if self.best is None:
            raise FitError("TLP not fitted")
        return self.best.name

    def mse_table(self) -> Dict[str, float]:
        """Per-family MSE on the warm-up window (Fig. 5's comparison)."""
        return {name: m.mse for name, m in sorted(self.candidates.items())}

    def predict_scalar(self, iteration: float) -> float:
        """Predicted training loss at one iteration (clamped at >= 0)."""
        if self.best is None:
            raise FitError("TLP not fitted")
        return max(0.0, self.best.predict_scalar(float(iteration)))

    def predict(self, iterations) -> np.ndarray:
        if self.best is None:
            raise FitError("TLP not fitted")
        return np.maximum(0.0, self.best.predict(iterations))
