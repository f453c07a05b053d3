"""Differential tests of the curve fit against scipy, a test-only oracle.

- The variable-projection fit against the multi-start ``curve_fit``
  search it replaced: for each family, a few cold starts over the rate
  with the same bounds, the best in-sample MSE wins.  On every random
  family-shaped curve the closed-form fit must do at least as well, for
  every family.
- The in-repo bounded Brent search against ``minimize_scalar(method=
  "bounded")``: the same point, value and number of evaluations, bit
  for bit, and so the same fitted parameters and MSE.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import curve_fit, minimize_scalar

from repro.errors import FitError
from repro.core.predictor import curves
from repro.core.predictor.curves import CURVE_FAMILIES

INF = np.inf


def reference_starts(name, x, y):
    """The old fitter's start points and bounds for one family."""
    span = max(float(x[-1]), 1.0)
    rates = [r / span for r in (1.0, 0.3, 3.0, 10.0)]
    first, last = float(y[0]), float(y[-1])
    if name == "exp2":
        return [[max(first, 1e-6), r] for r in rates], ([0, 0], [INF, INF])
    if name == "exp3":
        a0 = max(first - last, 1e-6)
        return [[a0, r, last] for r in rates], ([0, 0, -INF], [INF] * 3)
    if name == "expd3":
        return [[first, r, last] for r in rates], ([-INF, 0, -INF], [INF] * 3)
    if name == "pow3":
        a0 = max(first - last, 1e-6)
        starts = [[a0, 0.5, last]]
        starts += [[a0 * s, b0, last] for s in (1.0, 10.0) for b0 in (0.1, 1.0)]
        return starts, ([0, 0.01, -INF], [INF, 5.0, INF])
    slope = (last - first) / (float(x[-1] - x[0]) or 1.0)
    return [[slope, first]], (-INF, INF)


def reference_mse(family, x, y):
    """Best MSE of the multi-start ``curve_fit`` search (inf if none ran)."""
    starts, bounds = reference_starts(family.name, x, y)
    best = INF
    for p0 in starts:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                params, _ = curve_fit(
                    family.func, x, y, p0=p0, bounds=bounds, maxfev=20_000
                )
        except (RuntimeError, ValueError):
            continue
        residual = family.func(x, *params) - y
        best = min(best, float(np.mean(residual * residual)))
    return best


@st.composite
def family_curves(draw):
    """A noisy curve shaped like one of the decaying families over a random
    window.  (A decaying Expd3 is an Exp3.  Each curve bends visibly inside
    its window: the reference spends seconds on each near-linear fit.)"""
    n = draw(st.integers(20, 200))
    x0 = draw(st.integers(1, 10))
    x = np.arange(x0, x0 + n, dtype=np.float64)
    t = (x - x0) / n
    amp = draw(st.floats(0.2, 5.0))
    floor = draw(st.floats(0.0, 2.0))
    rate = draw(st.floats(2.0, 10.0))
    shape = draw(st.sampled_from(["exp2", "exp3", "pow3"]))
    if shape == "exp2":
        y = amp * np.exp(-rate * t)
    elif shape == "exp3":
        y = amp * np.exp(-rate * t) + floor
    else:
        y = amp * (x / x0) ** -draw(st.floats(0.3, 2.0)) + floor
    noise = draw(st.floats(0.0, 0.1)) * float(y[0] - y[-1])
    seed = draw(st.integers(0, 2**16))
    return x, y + noise * np.random.default_rng(seed).standard_normal(n)


@settings(max_examples=25, deadline=None)
@given(family_curves())
def test_closed_form_fit_never_worse_than_multistart(curve):
    x, y = curve
    for family in CURVE_FAMILIES:
        new = family().fit(x, y).mse
        assert new <= reference_mse(family, x, y) * (1 + 1e-6) + 1e-12, family.name


@pytest.mark.parametrize("family", CURVE_FAMILIES, ids=lambda f: f.name)
@pytest.mark.parametrize("bad", ["x", "y"])
def test_non_finite_input_rejected(family, bad):
    x = np.arange(1.0, 21.0)
    y = 2.0 * np.exp(-0.1 * x) + 0.5
    (x if bad == "x" else y)[5] = np.nan
    with pytest.raises(FitError):
        family().fit(x, y)


def scipy_fminbound(func, x1, x2, xatol):
    """The refinement as it ran through scipy."""
    res = minimize_scalar(
        func, bounds=(x1, x2), method="bounded", options={"xatol": xatol}
    )
    return res.x, res.fun


def _counted(func):
    calls = []

    def counted(x):
        calls.append(x)
        return func(x)

    return counted, calls


@st.composite
def bounded_objectives(draw):
    """A bracket, a tolerance, and an objective on it: a quadratic, ``|x-c|``,
    a cosine, a constant, a staircase (ties), or a slope whose minimum is
    at either bound."""
    x1 = draw(st.floats(-50.0, 50.0))
    x2 = x1 + draw(st.floats(1e-6, 40.0))
    xatol = draw(st.sampled_from([1e-9, 1e-5, 1e-3, 0.1]))
    c = draw(st.floats(x1 - 5.0, x2 + 5.0))
    k = draw(st.floats(0.01, 100.0))
    kind = draw(st.sampled_from(
        ["quadratic", "abs", "cos", "constant", "steps", "low_bound", "high_bound"]
    ))
    objective = {
        "quadratic": lambda x: k * (x - c) ** 2 - 1.0,
        "abs": lambda x: abs(x - c),
        "cos": lambda x: math.cos(k * x),
        "constant": lambda x: k,
        "steps": lambda x: math.floor(k * abs(x - c)),
        "low_bound": lambda x: k * (x - x1),
        "high_bound": lambda x: k * (x2 - x),
    }[kind]
    return objective, x1, x2, xatol


def _staircase(x):
    return math.floor(5.0 * abs(x - 1.5226983567891663))


@settings(max_examples=300, deadline=None)
@given(bounded_objectives())
# Ties between the second- and third-best points steer later parabolas.
@example((_staircase, -4.90795061445615, 3.9162645888731893, 1e-5))
def test_fminbound_takes_scipys_steps(case):
    objective, x1, x2, xatol = case
    ours, our_calls = _counted(objective)
    theirs, their_calls = _counted(objective)
    x, fun = curves._fminbound(ours, x1, x2, xatol)
    ref_x, ref_fun = scipy_fminbound(theirs, x1, x2, xatol)
    assert np.float64(x).tobytes() == np.float64(ref_x).tobytes()
    assert np.float64(fun).tobytes() == np.float64(ref_fun).tobytes()
    assert len(our_calls) == len(their_calls) <= curves.MAX_EVALUATIONS


def test_fminbound_stops_at_the_evaluation_cap():
    # With xatol = 0 and the minimum at 0 the tolerance shrinks with the
    # point itself: both searches stop after the same 500 calls.
    ours, our_calls = _counted(abs)
    theirs, their_calls = _counted(abs)
    assert curves._fminbound(ours, -1.0, 1.0, 0.0) == scipy_fminbound(
        theirs, -1.0, 1.0, 0.0
    )
    assert len(our_calls) == len(their_calls) == curves.MAX_EVALUATIONS


@settings(max_examples=50, deadline=None)
@given(family_curves())
def test_fits_bit_identical_to_a_scipy_refinement(curve):
    x, y = curve
    ours = curves.fit_all_curves(x, y)
    with mock.patch.object(curves, "_fminbound", scipy_fminbound):
        theirs = curves.fit_all_curves(x, y)
    assert ours.keys() == theirs.keys()
    for name, model in ours.items():
        assert model.params.tobytes() == theirs[name].params.tobytes(), name
        assert model.mse == theirs[name].mse, name
