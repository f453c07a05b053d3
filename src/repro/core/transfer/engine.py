"""The background worker (paper §4.4): Viper-ASync delivery and history flush.

In async mode the producer's training loop only pays for the local
snapshot copy; the wire movement, metadata publish, and notification run
on a worker thread.  The handler runs two instances of this one class:
``viper-engine`` for deliveries and ``viper-flusher`` for the flush of
historical checkpoints to the PFS, so a flush never queues behind a
delivery.  Each instance serializes its jobs (one worker — checkpoints
are totally ordered per producer, like the paper's single background
stream), retries them under an optional
:class:`~repro.resilience.retry.RetryPolicy`, tracks the simulated
background time, and surfaces job exceptions to the caller on
:meth:`~AsyncTransferEngine.drain` rather than swallowing them.

A job that raises :class:`~repro.resilience.recovery.SimulatedCrash`
kills the worker the way ``SIGKILL`` kills a process: the thread ends,
the queued jobs never run, and every :meth:`~AsyncTransferEngine.drain`
raises at once.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.errors import TransferError
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER
from repro.resilience.recovery import SimulatedCrash
from repro.resilience.retry import execute_with_retry
from repro.substrates.cost import Cost

__all__ = ["TransferJob", "AsyncTransferEngine"]


@dataclass
class TransferJob:
    """One queued model update; ``action`` performs the actual movement
    and returns the simulated background cost it incurred."""

    description: str
    action: Callable[[], Cost]
    done: threading.Event = field(default_factory=threading.Event)
    cost: Cost = field(default_factory=Cost.zero)
    error: Optional[BaseException] = None
    #: wire bytes this job moves (0 = unknown); drives the engine's
    #: ``engine_wire_bytes_total`` counter so delta savings show up in
    #: background-transfer accounting, not only in the save-side stats.
    nbytes: int = 0


class AsyncTransferEngine:
    """Single-worker background queue for model updates and flushes."""

    def __init__(
        self,
        name: str = "viper-engine",
        *,
        tracer=None,
        metrics=None,
        retry_policy=None,
        retry_rng=None,
    ):
        self.name = name
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        # Optional resilience.RetryPolicy: transient job failures are
        # retried on the worker before being surfaced on drain().  A job
        # that already exhausted an inner retry scope raises
        # RetriesExhausted, which the executor never re-retries.
        self.retry_policy = retry_policy
        self._retry_rng = retry_rng
        self._m_jobs_ok = self.metrics.counter(
            "engine_jobs_total", engine=name, status="ok"
        )
        self._m_jobs_err = self.metrics.counter(
            "engine_jobs_total", engine=name, status="error"
        )
        self._m_sim_seconds = self.metrics.histogram(
            "engine_job_sim_seconds", engine=name
        )
        self._m_depth = self.metrics.gauge("engine_queue_depth", engine=name)
        self._queue: "queue.Queue[Optional[TransferJob]]" = queue.Queue()
        self._lock = threading.Lock()
        self._completed: List[TransferJob] = []
        self._errors: List[TransferJob] = []
        self._background_cost = Cost.zero()
        self._thread = threading.Thread(target=self._run, daemon=True, name=name)
        self._started = False
        self._stopping = False
        self._dead = False

    def start(self) -> "AsyncTransferEngine":
        if not self._started:
            self._thread.start()
            self._started = True
        return self

    def submit(self, job: TransferJob) -> TransferJob:
        if not self._started:
            raise TransferError(f"{self.name}: engine not started")
        with self._lock:
            # A job enqueued behind the shutdown sentinel would never run
            # (and never set ``done``); fail loudly instead of hanging.
            if self._stopping:
                raise TransferError(f"{self.name}: engine is stopped")
            self._queue.put(job)
        self._m_depth.inc()
        return job

    def drain(self, timeout: float = 60.0, raise_on_error: bool = True) -> None:
        """Wait for all queued jobs; re-raise the first worker error."""
        settled = self._queue.all_tasks_done
        with settled:
            if not settled.wait_for(
                lambda: self._dead or not self._queue.unfinished_tasks, timeout
            ):
                raise TransferError(f"{self.name}: drain timed out")
        if self._dead:
            raise TransferError(f"{self.name}: worker died; queue not drained")
        if raise_on_error:
            with self._lock:
                failed = list(self._errors)
            if failed:
                raise TransferError(
                    f"{self.name}: {len(failed)} background job(s) failed; "
                    f"first: {failed[0].description}: {failed[0].error!r}"
                ) from failed[0].error

    def stop(self, timeout: float = 60.0) -> None:
        if not self._started:
            return
        with self._lock:
            already = self._stopping
            self._stopping = True
        if not already:
            self._queue.put(None)
        self._thread.join(timeout)

    # ------------------------------------------------------------------
    @property
    def background_cost(self) -> Cost:
        with self._lock:
            return self._background_cost

    @property
    def completed(self) -> int:
        with self._lock:
            return len(self._completed)

    @property
    def failures(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(j.description for j in self._errors)

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                self._queue.task_done()
                return
            try:
                with self.tracer.span(
                    "engine.job", track=self.name, description=job.description
                ):
                    if self.retry_policy is None:
                        job.cost = job.action()
                    else:
                        outcome = execute_with_retry(
                            job.action,
                            self.retry_policy,
                            site=f"engine.{self.name}",
                            rng=self._retry_rng,
                            tracer=self.tracer,
                            metrics=self.metrics,
                        )
                        job.cost = outcome.value
                        if outcome.backoff_seconds:
                            job.cost = job.cost + Cost.of(
                                "retry.backoff", outcome.backoff_seconds
                            )
                with self._lock:
                    self._completed.append(job)
                    self._background_cost = self._background_cost + job.cost
                self._m_jobs_ok.inc()
                self._m_sim_seconds.observe(job.cost.total)
                if job.nbytes:
                    self.metrics.counter(
                        "engine_wire_bytes_total", engine=self.name
                    ).inc(job.nbytes)
            except SimulatedCrash:
                # The chaos harness killed this "process"; die silently
                # like SIGKILL would, and wake every waiting drain.
                with self._queue.all_tasks_done:
                    self._dead = True
                    self._queue.all_tasks_done.notify_all()
                return
            except BaseException as exc:  # noqa: BLE001 - surfaced on drain
                job.error = exc
                with self._lock:
                    self._errors.append(job)
                self._m_jobs_err.inc()
            finally:
                self._m_depth.dec()
                job.done.set()
                self._queue.task_done()
