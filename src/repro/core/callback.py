"""Checkpoint Callback: Viper's hook into ``model.fit`` (paper Fig. 3).

"Before starting training in the producer, a Checkpoint Callback object is
created and added to the callback list of model.fit()."  The callback:

- tracks the training loss of every iteration (the IPP's raw material);
- during the warm-up stage only observes;
- at the end of warm-up, optionally asks the IPP to compute the
  near-optimal schedule (fixed-interval or greedy), or uses an explicit
  schedule / fixed interval it was given;
- at each scheduled iteration, calls ``viper.save_weights`` with the
  current model state, tagging the checkpoint with the iteration and the
  observed loss.

The callback accumulates the simulated training-stall time so benchmarks
can report Figure 9 / Table 1's "training overhead" directly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import ScheduleError
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER
from repro.core.predictor.adapter import CheckpointFrequencyAdapter
from repro.core.predictor.cilp import CILParams
from repro.core.predictor.ipp import InferencePerformancePredictor
from repro.core.predictor.schedules import Schedule
from repro.core.transfer.strategies import CaptureMode
from repro.dnn.training import Callback

__all__ = ["CheckpointCallback"]


class CheckpointCallback(Callback):
    """Keras-style callback driving Viper checkpoints during training.

    Exactly one of the scheduling inputs must be provided:

    - ``schedule`` — an explicit :class:`Schedule`;
    - ``interval`` — checkpoint every N iterations after warm-up;
    - ``algorithm`` (+ ``cil_params``, ``total_iters``,
      ``total_inferences``) — ``"fixed"``/``"greedy"`` let the IPP derive
      a static schedule from the warm-up losses when the warm-up ends;
      ``"adaptive"`` runs the online Checkpoint Frequency Adapter, which
      re-tunes its greedy threshold from observed losses every epoch.
    """

    def __init__(
        self,
        viper,
        model_name: str,
        *,
        warmup_iters: int = 0,
        schedule: Optional[Schedule] = None,
        interval: Optional[int] = None,
        algorithm: Optional[str] = None,
        cil_params: Optional[CILParams] = None,
        total_iters: Optional[int] = None,
        total_inferences: Optional[int] = None,
        iters_per_epoch: Optional[int] = None,
        mode: CaptureMode = CaptureMode.ASYNC,
        virtual_bytes: Optional[int] = None,
        virtual_tensors: Optional[int] = None,
        save_initial: bool = True,
        tracer=None,
        metrics=None,
    ):
        super().__init__()
        provided = sum(x is not None for x in (schedule, interval, algorithm))
        if provided != 1:
            raise ScheduleError(
                "provide exactly one of schedule=, interval=, algorithm="
            )
        if algorithm is not None and (
            cil_params is None or total_iters is None or total_inferences is None
        ):
            raise ScheduleError(
                "algorithm= needs cil_params=, total_iters=, total_inferences="
            )
        if warmup_iters < 0:
            raise ScheduleError("warmup_iters must be non-negative")
        self.viper = viper
        self.model_name = model_name
        self.warmup_iters = warmup_iters
        self.schedule = schedule
        self.interval = interval
        self.algorithm = algorithm
        self.cil_params = cil_params
        self.total_iters = total_iters
        self.total_inferences = total_inferences
        self.iters_per_epoch = iters_per_epoch
        self.mode = mode
        self.virtual_bytes = virtual_bytes
        self.virtual_tensors = virtual_tensors
        self.save_initial = save_initial
        # Fall back to the deployment's tracer/metrics when not given.
        self.tracer = tracer if tracer is not None else getattr(
            viper, "tracer", NULL_TRACER
        )
        self.metrics = metrics if metrics is not None else getattr(
            viper, "metrics", NULL_METRICS
        )

        self.iteration_losses: List[float] = []
        self.checkpoints_taken: List[int] = []
        self.stall_seconds = 0.0
        self.ipp: Optional[InferencePerformancePredictor] = None
        self.adapter: Optional[CheckpointFrequencyAdapter] = None
        if algorithm == "adaptive":
            if warmup_iters < 4:
                raise ScheduleError("adaptive mode needs warmup_iters >= 4")
            self.adapter = CheckpointFrequencyAdapter(
                cil_params,
                warmup_iters=warmup_iters,
                end_iter=total_iters,
                total_infers=total_inferences,
                refit_every=iters_per_epoch,
            )
        self._schedule_set = frozenset(schedule.iterations) if schedule else None

    # ------------------------------------------------------------------
    def _should_checkpoint(self, iteration: int) -> bool:
        if iteration <= self.warmup_iters:
            return False
        if self._schedule_set is not None:
            return iteration in self._schedule_set
        if self.interval is not None:
            return (iteration - self.warmup_iters) % self.interval == 0
        return False  # algorithm mode before the schedule is computed

    def _finish_warmup(self) -> None:
        """Fit the IPP and materialize the schedule (algorithm mode)."""
        self.ipp = InferencePerformancePredictor(self.cil_params)
        self.ipp.observe_warmup(self.iteration_losses, start_iteration=1)
        computed = self.ipp.schedule(
            self.algorithm,
            end_iter=self.total_iters,
            total_infers=self.total_inferences,
            iters_per_epoch=self.iters_per_epoch,
        )
        self.schedule = computed
        self._schedule_set = frozenset(computed.iterations)

    def _save(self, iteration: int, loss: float) -> None:
        with self.tracer.span(
            "callback.save", track="producer", model=self.model_name,
            iteration=iteration,
        ) as sp:
            result = self.viper.save_weights(
                self.model_name,
                self.model.state_dict(),
                mode=self.mode,
                train_iteration=iteration,
                train_loss=loss,
                virtual_bytes=self.virtual_bytes,
                virtual_tensors=self.virtual_tensors,
            )
            sp.set(version=result.version, sim_stall=result.stall.total)
        self.checkpoints_taken.append(iteration)
        self.stall_seconds += result.stall.total
        self.metrics.counter(
            "callback_checkpoints_total", model=self.model_name
        ).inc()
        self.metrics.histogram(
            "callback_stall_sim_seconds", model=self.model_name
        ).observe(result.stall.total)

    # ------------------------------------------------------------------
    # Callback hooks
    # ------------------------------------------------------------------
    def on_train_begin(self, logs: Dict[str, Any]) -> None:
        if self.save_initial and self.warmup_iters == 0:
            self._save(0, float("nan"))

    def on_batch_end(self, iteration: int, logs: Dict[str, Any]) -> None:
        loss = float(logs["loss"])
        self.iteration_losses.append(loss)
        if self.adapter is not None:
            take = self.adapter.observe(iteration, loss)
            if iteration == self.warmup_iters and self.save_initial:
                self._save(iteration, loss)
            elif take:
                self._save(iteration, loss)
            return
        if iteration == self.warmup_iters:
            if self.algorithm is not None:
                self._finish_warmup()
            if self.save_initial:
                # The warm-up model is the consumer's first serving model.
                self._save(iteration, loss)
            return
        if self._should_checkpoint(iteration):
            self._save(iteration, loss)

    def on_train_end(self, logs: Dict[str, Any]) -> None:
        # Let in-flight async updates settle so the consumer can observe
        # the final model.
        drain = getattr(self.viper, "drain", None)
        if drain is not None:
            drain()
