"""Checkpoint Frequency Adapter: online threshold adaptation."""

import numpy as np
import pytest

from repro.errors import ScheduleError
from repro.core.predictor.adapter import CheckpointFrequencyAdapter
from repro.core.predictor.cilp import CILParams
from tests.conftest import exp3_curve


def make_adapter(**overrides):
    params = overrides.pop(
        "params", CILParams(t_train=0.05, t_p=0.05, t_c=0.05, t_infer=0.005)
    )
    base = dict(
        warmup_iters=100,
        end_iter=600,
        total_infers=20_000,
        refit_every=50,
    )
    base.update(overrides)
    return CheckpointFrequencyAdapter(params, **base)


def drive(adapter, curve):
    """Feed a loss curve; return the checkpoint iterations chosen."""
    taken = []
    for i, loss in enumerate(curve, start=1):
        if adapter.observe(i, float(loss)):
            taken.append(i)
    return taken


class TestOnlineBehaviour:
    def test_no_checkpoints_during_warmup(self):
        adapter = make_adapter()
        curve = exp3_curve(600, a=3.0, b=0.01, c=0.3)
        taken = drive(adapter, curve)
        assert all(i > 100 for i in taken)
        assert taken  # improvements exist after warm-up

    def test_front_loaded_on_decaying_curve(self):
        adapter = make_adapter()
        curve = exp3_curve(600, a=3.0, b=0.01, c=0.3)
        taken = drive(adapter, curve)
        gaps = np.diff([100] + taken)
        # Denser updates early than late.
        assert gaps[0] <= gaps[-1]

    def test_flat_curve_yields_no_checkpoints(self):
        adapter = make_adapter()
        curve = np.concatenate([exp3_curve(100, a=3.0, b=0.05, c=0.3),
                                np.full(500, 0.3)])
        taken = drive(adapter, curve)
        # A handful of early checkpoints may pick up the residual warm-up
        # decay still inside the trailing window; the flat region itself
        # must stay quiet.
        assert len(taken) <= 4
        assert all(i < 250 for i in taken)

    def test_noise_does_not_trigger_spurious_checkpoints(self):
        rng = np.random.default_rng(5)
        flat = 0.5 + 0.05 * rng.standard_normal(600)
        flat[:100] = exp3_curve(100, a=2.0, b=0.05, c=0.5, noise=0.05, seed=1)
        adapter = make_adapter()
        taken = drive(adapter, flat)
        assert len(taken) <= 3

    def test_min_spacing_enforced(self):
        params = CILParams(t_train=0.05, t_p=0.5, t_c=0.05, t_infer=0.005)
        adapter = make_adapter(params=params)
        assert adapter.min_spacing == 11  # 0.5/0.05 + 1
        curve = exp3_curve(600, a=5.0, b=0.02, c=0.1)
        taken = drive(adapter, curve)
        assert all(d >= 11 for d in np.diff([100] + taken))

    def test_refits_happen(self):
        adapter = make_adapter()
        drive(adapter, exp3_curve(600, a=3.0, b=0.01, c=0.3))
        assert adapter.refits >= 2

    def test_checkpoints_recorded(self):
        adapter = make_adapter()
        taken = drive(adapter, exp3_curve(600, a=3.0, b=0.01, c=0.3))
        assert adapter.checkpoints == taken


class TestValidation:
    def test_out_of_order_observation(self):
        adapter = make_adapter()
        adapter.observe(1, 1.0)
        with pytest.raises(ScheduleError):
            adapter.observe(3, 0.9)

    def test_smoothed_loss_requires_observation(self):
        with pytest.raises(ScheduleError):
            make_adapter().smoothed_loss

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"warmup_iters": 2},
            {"end_iter": 50},
            {"total_infers": 0},
            {"refit_every": 0},
        ],
    )
    def test_invalid_construction(self, kwargs):
        with pytest.raises(ScheduleError):
            make_adapter(**kwargs)
