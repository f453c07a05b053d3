"""Async transfer engine tests."""

import threading
import time

import pytest

from repro.errors import TransferError
from repro.substrates.cost import Cost
from repro.core.transfer.engine import AsyncTransferEngine, TransferJob
from repro.resilience.recovery import SimulatedCrash


class TestEngine:
    def test_job_runs_and_records_cost(self):
        engine = AsyncTransferEngine().start()
        job = engine.submit(
            TransferJob("j1", lambda: Cost.of("link", 1.5))
        )
        engine.drain()
        assert job.done.is_set()
        assert job.cost.total == pytest.approx(1.5)
        assert engine.completed == 1
        assert engine.background_cost.total == pytest.approx(1.5)
        engine.stop()

    def test_jobs_run_in_submission_order(self):
        engine = AsyncTransferEngine().start()
        order = []

        def action(tag):
            def run():
                order.append(tag)
                return Cost.zero()
            return run

        for tag in ("a", "b", "c"):
            engine.submit(TransferJob(tag, action(tag)))
        engine.drain()
        assert order == ["a", "b", "c"]
        engine.stop()

    def test_submit_before_start_rejected(self):
        with pytest.raises(TransferError):
            AsyncTransferEngine().submit(TransferJob("x", Cost.zero))

    def test_error_surfaced_on_drain(self):
        engine = AsyncTransferEngine().start()

        def boom():
            raise ValueError("injected")

        engine.submit(TransferJob("bad", boom))
        with pytest.raises(TransferError, match="bad"):
            engine.drain()
        assert engine.failures == ("bad",)
        engine.stop()

    def test_error_does_not_kill_worker(self):
        engine = AsyncTransferEngine().start()

        def boom():
            raise RuntimeError("x")

        engine.submit(TransferJob("bad", boom))
        engine.submit(TransferJob("good", lambda: Cost.of("c", 1.0)))
        engine.drain(raise_on_error=False)
        assert engine.completed == 1
        engine.stop()

    def test_caller_not_blocked_by_slow_job(self):
        engine = AsyncTransferEngine().start()
        release = threading.Event()

        def slow():
            release.wait(2.0)
            return Cost.zero()

        t0 = time.monotonic()
        engine.submit(TransferJob("slow", slow))
        submitted_in = time.monotonic() - t0
        assert submitted_in < 0.1
        release.set()
        engine.drain()
        engine.stop()

    def test_stop_before_start_is_noop(self):
        AsyncTransferEngine().stop()

    def test_simulated_crash_kills_the_worker(self):
        engine = AsyncTransferEngine().start()
        ran = []

        def crash():
            raise SimulatedCrash("flush.start")

        engine.submit(TransferJob("dies", crash))
        engine.submit(TransferJob("never", lambda: ran.append(1) or Cost.zero()))
        t0 = time.monotonic()
        with pytest.raises(TransferError, match="died"):
            engine.drain(timeout=10)
        assert time.monotonic() - t0 < 5
        engine._thread.join(5)
        assert engine._dead and not engine._thread.is_alive()
        assert ran == [] and engine._queue.unfinished_tasks == 1
        # A dead worker refuses every later drain at once.
        with pytest.raises(TransferError, match="died"):
            engine.drain(timeout=10)

    def test_stop_idempotent(self):
        engine = AsyncTransferEngine().start()
        engine.stop()
        engine.stop()

    def test_submit_after_stop_raises(self):
        engine = AsyncTransferEngine().start()
        engine.stop()
        with pytest.raises(TransferError):
            engine.submit(TransferJob("late", lambda: Cost.zero()))

    def test_submit_after_stop_raises_even_unstarted(self):
        engine = AsyncTransferEngine()
        engine.stop()
        with pytest.raises(TransferError):
            engine.submit(TransferJob("late", lambda: Cost.zero()))
