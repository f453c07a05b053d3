"""Parametric learning-curve families (paper §4.3, Fig. 5).

Viper models the training-loss curve with four functions from the
learning-curve literature [Viering & Loog 2022], all monotonically
decreasing in their fitted regime:

- ``Exp2``:  a * exp(-b x)
- ``Exp3``:  a * exp(-b x) + c
- ``Lin2``:  a x + b                  (a <= 0 after fitting a decay)
- ``Expd3``: c - (c - a) * exp(-b x)  (from a at x=0 toward c)

plus ``Pow3`` (a * x^-b + c), another decreasing family from the same
survey: SGD loss curves are frequently power-law rather than exponential,
and the TLP's pluggable candidate set (paper design objective 1) lets a
deployment include it when exponential families extrapolate poorly.

Fitting is nonlinear least squares (scipy ``curve_fit``) with a small
multi-start grid over the rate parameter — single-start fits of
exponential families are notorious for local minima on two-phase loss
curves.  Model selection (in :mod:`repro.core.predictor.tlp`) is by MSE,
exactly as the paper selects Exp3 for CANDLE-TC1.
"""

from __future__ import annotations

import warnings
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import curve_fit

from repro.errors import FitError

__all__ = [
    "CurveModel",
    "Exp2",
    "Exp3",
    "Lin2",
    "Expd3",
    "Pow3",
    "fit_all_curves",
    "CURVE_FAMILIES",
    "PAPER_FAMILIES",
]


class CurveModel:
    """Base class: fit on (x, y), then predict loss at any iteration."""

    name = "curve"
    n_params = 0

    def __init__(self):
        self.params: Optional[np.ndarray] = None
        self.mse: float = float("inf")

    # -- subclass contract ---------------------------------------------
    @staticmethod
    def func(x: np.ndarray, *params) -> np.ndarray:
        raise NotImplementedError

    def initial_guess(self, x: np.ndarray, y: np.ndarray) -> Sequence[float]:
        raise NotImplementedError

    def extra_guesses(self, x: np.ndarray, y: np.ndarray) -> Sequence[Sequence[float]]:
        """Additional multi-start points (rate-parameter grid)."""
        return ()

    def bounds(self) -> Tuple[Sequence[float], Sequence[float]]:
        return (-np.inf, np.inf)

    # -- shared machinery -----------------------------------------------
    def fit(self, x: Sequence[float], y: Sequence[float]) -> "CurveModel":
        """Multi-start least-squares fit; records in-sample MSE.  Raises
        FitError if no start converges."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.shape != y.shape or x.ndim != 1:
            raise FitError(f"{self.name}: x and y must be equal-length 1-D arrays")
        if x.size < self.n_params:
            raise FitError(
                f"{self.name}: need at least {self.n_params} points, got {x.size}"
            )
        starts = [self.initial_guess(x, y), *self.extra_guesses(x, y)]
        best_params = None
        best_mse = float("inf")
        errors = []
        for p0 in starts:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    params, _cov = curve_fit(
                        self.func,
                        x,
                        y,
                        p0=p0,
                        bounds=self.bounds(),
                        maxfev=20_000,
                    )
            except (RuntimeError, ValueError) as exc:
                errors.append(str(exc))
                continue
            residual = self.func(x, *params) - y
            mse = float(np.mean(residual * residual))
            if mse < best_mse:
                best_mse = mse
                best_params = params
        if best_params is None:
            raise FitError(f"{self.name}: all starts failed: {errors[:2]}")
        self.params = np.asarray(best_params, dtype=np.float64)
        self.mse = best_mse
        return self

    def mse_on(self, x, y) -> float:
        """Out-of-sample MSE on a holdout window."""
        residual = self.predict(np.asarray(x, dtype=np.float64)) - np.asarray(
            y, dtype=np.float64
        )
        return float(np.mean(residual * residual))

    def predict(self, x) -> np.ndarray:
        if self.params is None:
            raise FitError(f"{self.name}: predict() before fit()")
        return self.func(np.asarray(x, dtype=np.float64), *self.params)

    def predict_scalar(self, x: float) -> float:
        return float(self.predict(np.asarray([x]))[0])

    def __repr__(self) -> str:
        if self.params is None:
            return f"{type(self).__name__}(unfitted)"
        p = ", ".join(f"{v:.4g}" for v in self.params)
        return f"{type(self).__name__}([{p}], mse={self.mse:.3e})"


class Exp2(CurveModel):
    """``a * exp(-b x)`` — pure exponential decay to zero."""

    name = "exp2"
    n_params = 2

    @staticmethod
    def func(x, a, b):
        return a * np.exp(-b * x)

    def initial_guess(self, x, y):
        return [max(float(y[0]), 1e-6), 1.0 / max(float(x[-1]), 1.0)]

    def extra_guesses(self, x, y):
        a0 = max(float(y[0]), 1e-6)
        span = max(float(x[-1]), 1.0)
        return [[a0, r / span] for r in (0.3, 3.0, 10.0)]

    def bounds(self):
        return ([0.0, 0.0], [np.inf, np.inf])


class Exp3(CurveModel):
    """``a * exp(-b x) + c`` — decay to an asymptote (TC1's best fit)."""

    name = "exp3"
    n_params = 3

    @staticmethod
    def func(x, a, b, c):
        return a * np.exp(-b * x) + c

    def initial_guess(self, x, y):
        c0 = float(y[-1])
        a0 = max(float(y[0]) - c0, 1e-6)
        return [a0, 1.0 / max(float(x[-1]), 1.0), c0]

    def extra_guesses(self, x, y):
        c0 = float(y[-1])
        a0 = max(float(y[0]) - c0, 1e-6)
        span = max(float(x[-1]), 1.0)
        return [[a0, r / span, c0] for r in (0.3, 3.0, 10.0)]

    def bounds(self):
        return ([0.0, 0.0, -np.inf], [np.inf, np.inf, np.inf])


class Lin2(CurveModel):
    """``a x + b`` — a straight line (competitive only early in training)."""

    name = "lin2"
    n_params = 2

    @staticmethod
    def func(x, a, b):
        return a * x + b

    def initial_guess(self, x, y):
        span = float(x[-1] - x[0]) or 1.0
        return [(float(y[-1]) - float(y[0])) / span, float(y[0])]


class Expd3(CurveModel):
    """``c - (c - a) * exp(-b x)`` — from ``a`` at x=0 toward ``c``."""

    name = "expd3"
    n_params = 3

    @staticmethod
    def func(x, a, b, c):
        return c - (c - a) * np.exp(-b * x)

    def initial_guess(self, x, y):
        return [float(y[0]), 1.0 / max(float(x[-1]), 1.0), float(y[-1])]

    def extra_guesses(self, x, y):
        span = max(float(x[-1]), 1.0)
        return [[float(y[0]), r / span, float(y[-1])] for r in (0.3, 3.0, 10.0)]

    def bounds(self):
        return ([-np.inf, 0.0, -np.inf], [np.inf, np.inf, np.inf])


class Pow3(CurveModel):
    """``a * x^-b + c`` — power-law decay to an asymptote.

    From the same learning-curve survey the paper draws its families
    from; SGD training loss is frequently power-law, and this family
    extrapolates the slow tail far better than the exponentials.
    """

    name = "pow3"
    n_params = 3

    @staticmethod
    def func(x, a, b, c):
        return a * np.power(np.maximum(x, 1e-9), -b) + c

    def initial_guess(self, x, y):
        return [max(float(y[0]) - float(y[-1]), 1e-6), 0.5, float(y[-1])]

    def extra_guesses(self, x, y):
        a0 = max(float(y[0]) - float(y[-1]), 1e-6)
        return [[a0 * s, b0, float(y[-1])] for s in (1.0, 10.0) for b0 in (0.1, 1.0)]

    def bounds(self):
        return ([0.0, 0.01, -np.inf], [np.inf, 5.0, np.inf])


#: The four families the paper lists (§4.3).
PAPER_FAMILIES = (Exp2, Exp3, Lin2, Expd3)

#: The default candidate set the TLP searches over: the paper's four
#: plus Pow3 via the pluggable-predictor design.
CURVE_FAMILIES = (Exp2, Exp3, Lin2, Expd3, Pow3)


def fit_all_curves(
    x: Sequence[float],
    y: Sequence[float],
    families: Optional[Sequence[type]] = None,
) -> Dict[str, CurveModel]:
    """Fit every family; families whose optimizer diverges are skipped.

    Returns ``{name: fitted model}``; raises FitError only when *no*
    family could be fitted.  ``families`` defaults to
    :data:`CURVE_FAMILIES`; pass :data:`PAPER_FAMILIES` to restrict to
    the paper's exact four.
    """
    fitted: Dict[str, CurveModel] = {}
    errors: List[str] = []
    for family in families if families is not None else CURVE_FAMILIES:
        model = family()
        try:
            model.fit(x, y)
        except FitError as exc:
            errors.append(str(exc))
            continue
        fitted[model.name] = model
    if not fitted:
        raise FitError(f"no learning-curve family could be fitted: {errors}")
    return fitted
