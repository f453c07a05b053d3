"""IPP facade tests: warm-up observation to schedule generation."""

import numpy as np
import pytest

from repro.errors import ScheduleError
from repro.core.predictor.ipp import InferencePerformancePredictor
from tests.conftest import exp3_curve


@pytest.fixture
def ipp(small_params):
    pred = InferencePerformancePredictor(small_params)
    pred.observe_warmup(exp3_curve(300, a=3.0, b=0.01, c=0.4, noise=0.02),
                        start_iteration=1, horizon=1200)
    return pred


class TestObservation:
    def test_fit_happens_on_observe(self, ipp):
        assert ipp.tlp is not None
        assert ipp.loss_pred(100) > ipp.loss_pred(1000)

    def test_predictions_track_truth(self, ipp):
        truth = 3.0 * np.exp(-0.01 * 600) + 0.4
        assert ipp.loss_pred(600) == pytest.approx(truth, abs=0.15)

    def test_external_predictor_bypasses_tlp(self, small_params):
        pred = InferencePerformancePredictor(
            small_params, loss_pred=lambda i: 42.0
        )
        assert pred.loss_pred(5) == 42.0
        assert pred.tlp is None

    def test_schedule_before_observe_rejected(self, small_params):
        pred = InferencePerformancePredictor(small_params)
        with pytest.raises(ScheduleError):
            pred.schedule("fixed", end_iter=100, total_infers=100)


class TestScheduleGeneration:
    def test_epoch_schedule(self, ipp):
        schedule = ipp.schedule(
            "epoch", end_iter=1200, total_infers=1000, iters_per_epoch=300
        )
        assert schedule.kind == "epoch"
        assert schedule.iterations == (600, 900, 1200)

    def test_epoch_requires_iters_per_epoch(self, ipp):
        with pytest.raises(ScheduleError):
            ipp.schedule("epoch", end_iter=1200, total_infers=1000)

    def test_fixed_schedule(self, ipp):
        schedule = ipp.schedule(
            "fixed", end_iter=1200, total_infers=10_000, max_interval=100
        )
        assert schedule.kind == "fixed"
        assert schedule.num_checkpoints > 0
        assert schedule.start_iter == 300  # warm-up end

    def test_greedy_schedule_sweeps_threshold(self, ipp):
        schedule = ipp.schedule("greedy", end_iter=1200, total_infers=10_000)
        assert schedule.kind == "greedy"
        assert schedule.num_checkpoints > 0
        assert np.isfinite(schedule.predicted_cil)

    def test_greedy_with_explicit_threshold_is_paper_exact(self, ipp):
        schedule = ipp.schedule(
            "greedy", end_iter=1200, total_infers=10_000, threshold=0.05
        )
        assert schedule.threshold == pytest.approx(0.05)

    def test_explicit_start_iter(self, ipp):
        schedule = ipp.schedule(
            "fixed", end_iter=1200, total_infers=1000,
            start_iter=500, max_interval=50,
        )
        assert schedule.start_iter == 500
        assert all(it > 500 for it in schedule.iterations)

    def test_unknown_algorithm(self, ipp):
        with pytest.raises(ScheduleError):
            ipp.schedule("magic", end_iter=1200, total_infers=1000)

    def test_cil_predictor_shares_fit(self, ipp):
        cilp = ipp.cil_predictor()
        assert cilp.loss_pred(600) == ipp.loss_pred(600)
        assert cilp.acc_loss(50, t_max=30.0) > 0


class TestScheduleQuality:
    def test_greedy_front_loads_on_decaying_curve(self, ipp):
        schedule = ipp.schedule("greedy", end_iter=1200, total_infers=50_000)
        gaps = np.diff((schedule.start_iter,) + schedule.iterations)
        if len(gaps) >= 4:
            assert np.mean(gaps[: len(gaps) // 2]) <= np.mean(
                gaps[len(gaps) // 2 :]
            )

    def test_fixed_beats_single_checkpoint_in_prediction(self, ipp):
        best = ipp.schedule(
            "fixed", end_iter=1200, total_infers=50_000, max_interval=300
        )
        from repro.core.predictor.schedules import fixed_interval_schedule

        rare = fixed_interval_schedule(
            300, 1200, 50_000, ipp.loss_pred, ipp.params,
            max_interval=900,
        )
        # The searched optimum can't be worse than any single candidate.
        assert best.predicted_cil <= rare.predicted_cil + 1e-9
