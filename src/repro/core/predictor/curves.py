"""Parametric learning-curve families (paper §4.3, Fig. 5).

Viper models the training-loss curve with four functions from the
learning-curve literature [Viering & Loog 2022], all monotonically
decreasing in their fitted regime:

- ``Exp2``:  a * exp(-b x)
- ``Exp3``:  a * exp(-b x) + c
- ``Lin2``:  a x + b                  (a <= 0 after fitting a decay)
- ``Expd3``: c - (c - a) * exp(-b x)  (from a at x=0 toward c)

plus ``Pow3`` (a * x^-b + c) from the same survey: SGD loss is often a
power law, and the TLP's candidate set is pluggable (design objective 1).

Every family but Lin2 is linear in all its parameters except the rate
``b``, so fitting is variable projection [Golub & Pereyra 1973]: at each
rate the rest is a closed-form least-squares solve over the family's
basis columns.  The projected MSE is evaluated on a log grid of rates —
which keeps two-phase curves out of local minima — and the best grid
point is refined by a bounded Brent search.  Lin2 is ``np.polyfit``.
Model selection (in :mod:`repro.core.predictor.tlp`) is by MSE, exactly
as the paper selects Exp3 for CANDLE-TC1.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import FitError

__all__ = [
    "CurveModel", "Exp2", "Exp3", "Lin2", "Expd3", "Pow3",
    "fit_all_curves", "CURVE_FAMILIES", "PAPER_FAMILIES",
]

#: Log-spaced rates the projected MSE is evaluated at before refining.
RATE_GRID_POINTS = 64
#: Tolerance of the refinement, on log(rate).
LOG_RATE_TOL = 1e-9
#: Objective evaluations the refinement may spend.
MAX_EVALUATIONS = 500
#: A column no larger than this is left out of a solve (coefficient 0).
NEGLIGIBLE_COLUMN = 1e-100


def _lstsq(basis: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least squares on max-1 scaled columns: at a fast rate an exponential
    column can be 1e-90 beside a constant one and still carry a transient."""
    scale = np.abs(basis).max(axis=0)
    live = scale > NEGLIGIBLE_COLUMN
    coef = np.zeros(basis.shape[1])
    coef[live] = np.linalg.lstsq(basis[:, live] / scale[live], y, rcond=None)[0]
    return coef / np.where(live, scale, 1.0)


def _fminbound(
    func: Callable[[float], float], x1: float, x2: float, xatol: float
) -> Tuple[float, float]:
    """``(x, func(x))`` at a local minimum of ``func`` on ``[x1, x2]``:
    Brent's bounded search (golden-section steps, parabolic where they
    are accepted), taking the reference ``fminbound``'s steps exactly
    [Forsythe, Malcolm & Moler 1977], so every fit keeps its bits.  At
    most :data:`MAX_EVALUATIONS` calls."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = x1, x2
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if np.abs(e) > tol1:  # try a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            if np.abs(p) < np.abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e
        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= MAX_EVALUATIONS:
            break
    return xf, fx


class CurveModel:
    """Base class: fit on (x, y), then predict loss at any iteration.

    A family declares its formula ``func(x, a, b, ...)``, the ``columns(x,
    b)`` it is linear in at rate ``b`` (``a`` weighs the first, the later
    parameters the rest), and whether ``a >= 0`` holds."""

    name = "curve"
    a_nonnegative = True

    def __init__(self):
        self.params: Optional[np.ndarray] = None
        self.mse: float = float("inf")

    @staticmethod
    def func(x: np.ndarray, *params) -> np.ndarray:
        raise NotImplementedError

    @staticmethod
    def columns(x: np.ndarray, b: float) -> Sequence[np.ndarray]:
        raise NotImplementedError

    def rate_range(self, x: np.ndarray) -> Tuple[float, float]:
        """Search range of ``b``; an exponential's scales with the span."""
        span = max(float(x[-1]), 1.0)
        return 1e-4 / span, 1e3 / span

    def fit(self, x: Sequence[float], y: Sequence[float]) -> "CurveModel":
        """Least-squares fit; records the in-sample MSE."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.shape != y.shape or x.ndim != 1:
            raise FitError(f"{self.name}: x and y must be equal-length 1-D arrays")
        n = self.func.__code__.co_argcount - 1  # the formula's parameters
        if x.size < n:
            raise FitError(f"{self.name}: need at least {n} points, got {x.size}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise FitError(f"{self.name}: x and y must be finite")
        self.params = self._solve(x, y)
        self.mse = self.mse_on(x, y)
        return self

    def _solve(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The rate minimising the projected MSE, and its coefficients."""
        def projected_mse(log_b: float) -> float:
            return self._project(x, y, float(np.exp(log_b)))[1]

        grid = np.linspace(*np.log(self.rate_range(x)), RATE_GRID_POINTS)
        mses = [projected_mse(t) for t in grid]
        i = int(np.argmin(mses))
        bracket = (grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)])
        log_b, mse = _fminbound(projected_mse, *bracket, xatol=LOG_RATE_TOL)
        b = float(np.exp(log_b if mse < mses[i] else grid[i]))
        coef, _ = self._project(x, y, b)
        return np.array([coef[0], b, *coef[1:]])

    def _project(self, x, y, b: float) -> Tuple[np.ndarray, float]:
        """Coefficients at rate ``b`` and their MSE.  A negative ``a`` where
        ``a >= 0`` holds becomes 0 with the rest refitted: exact, as the
        problem is convex with one sign constraint."""
        basis = np.column_stack(self.columns(x, b))
        coef = _lstsq(basis, y)
        if self.a_nonnegative and coef[0] < 0.0:
            coef = np.concatenate(([0.0], _lstsq(basis[:, 1:], y)))
        residual = basis @ coef - y
        return coef, float(residual @ residual) / y.size

    def mse_on(self, x, y) -> float:
        """Out-of-sample MSE on a holdout window."""
        residual = self.predict(x) - np.asarray(y, dtype=np.float64)
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

    @staticmethod
    def func(x, a, b):
        return a * np.exp(-b * x)

    @staticmethod
    def columns(x, b):
        return [np.exp(-b * x)]


class Exp3(CurveModel):
    """``a * exp(-b x) + c`` — decay to an asymptote (TC1's best fit)."""

    name = "exp3"

    @staticmethod
    def func(x, a, b, c):
        return a * np.exp(-b * x) + c

    @staticmethod
    def columns(x, b):
        return [np.exp(-b * x), np.ones_like(x)]


class Lin2(CurveModel):
    """``a x + b`` — a straight line (competitive only early in training)."""

    name = "lin2"

    @staticmethod
    def func(x, a, b):
        return a * x + b

    def _solve(self, x, y):
        return np.polyfit(x, y, 1)


class Expd3(CurveModel):
    """``c - (c - a) * exp(-b x)`` — from ``a`` at x=0 toward ``c``."""

    name = "expd3"
    a_nonnegative = False

    @staticmethod
    def func(x, a, b, c):
        return c - (c - a) * np.exp(-b * x)

    @staticmethod
    def columns(x, b):
        decay = np.exp(-b * x)
        return [decay, 1.0 - decay]


class Pow3(CurveModel):
    """``a * x^-b + c`` — power-law decay to an asymptote; extrapolates a
    slow SGD tail far better than the exponentials."""

    name = "pow3"

    @staticmethod
    def func(x, a, b, c):
        return a * np.power(np.maximum(x, 1e-9), -b) + c

    @staticmethod
    def columns(x, b):
        return [np.power(np.maximum(x, 1e-9), -b), np.ones_like(x)]

    def rate_range(self, x):
        return 0.01, 5.0


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
    """``{name: fitted model}`` for every family with enough points;
    FitError only when none fits.  ``families`` defaults to
    :data:`CURVE_FAMILIES`; :data:`PAPER_FAMILIES` is the paper's four."""
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
