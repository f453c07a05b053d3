"""Crash-restart chaos harness.

One :class:`CrashRestartHarness` run is a seeded experiment:

1. a producer publishes ``n_versions`` checkpoints (SYNC capture, HOST
   strategy, history flushed to the PFS) with a durable journal armed;
2. a seeded :class:`~repro.resilience.recovery.CrashPlan` kills the
   "process" at a randomly chosen kill point — mid-publish (before the
   journal append, after it, or after the notify), mid-flush (before or
   after the PFS put), or mid-media-write (before the atomic rename);
3. the deployment restarts from the same journal directory with
   ``recover=True``, the consumer resubscribes with its last consumed
   sequence number, and production continues to ``n_versions``;
4. the recovered end state is asserted equivalent to a crash-free
   reference: every version durable with bit-identical content, the
   consumer converged on the newest version through strictly-increasing
   swaps, and a second recovery replays to the identical state.

The kill point and journal knobs derive from the run's seed, so a CI
failure reproduces locally from the seed alone.  On assertion failure
the journal directory is copied to ``$VIPER_CRASH_ARTIFACT_DIR`` (when
set) for post-mortem.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.api import Viper, ViperConsumer
from repro.core.transfer.strategies import CaptureMode, TransferStrategy
from repro.obs.lineage import LifecycleLedger
from repro.resilience.recovery import (
    CrashPlan,
    CrashPoint,
    MetadataJournal,
    SimulatedCrash,
)

__all__ = ["CrashRestartHarness", "HarnessResult", "KILL_SITES"]

MODEL = "chaos-model"

#: (site pattern, max at_op drawn) — every kill point the publish and
#: flush paths expose.  ``at_op`` picks which arrival dies, so one list
#: covers "first publish" through "fourth flush".
KILL_SITES = [
    ("publish.staged", 4),
    ("publish.metadata", 4),
    ("publish.notified", 4),
    ("flush.start", 3),
    ("flush.staged", 3),
    ("media.staged:*", 3),
]


def state_for(version: int) -> Dict[str, np.ndarray]:
    """Deterministic checkpoint content: every element is the version."""
    return {
        "w": np.full((8, 8), float(version), dtype=np.float32),
        "b": np.full((8,), float(version), dtype=np.float32),
    }


class DictModel:
    """The smallest thing the double buffer can serve: a state holder."""

    def __init__(self):
        self.state: Dict[str, np.ndarray] = {}

    def load_state_dict(
        self, state: Dict[str, np.ndarray], *, copy: bool = True
    ) -> None:
        self.state = {k: np.array(v, copy=copy) for k, v in state.items()}


@dataclass
class HarnessResult:
    """What one seeded crash-restart experiment observed."""

    seed: int
    site: str
    at_op: int
    crashed: bool                   # did the kill point actually fire?
    crash_site: str = ""            # where it fired (may differ via fnmatch)
    recovery: Dict[str, int] = field(default_factory=dict)
    #: versions applied per consumer incarnation, in order; a restarted
    #: consumer starts from scratch, so it legitimately re-applies the
    #: newest version — but *within* an incarnation swaps only go up.
    swaps: List[int] = field(default_factory=list)
    swaps_restarted: List[int] = field(default_factory=list)
    stale_polls: int = 0


class CrashRestartHarness:
    """Run one seeded crash-restart experiment and assert equivalence."""

    def __init__(self, seed: int, *, n_versions: int = 6):
        self.seed = seed
        self.n_versions = n_versions
        self.rng = random.Random(f"crash-harness/{seed}")
        site, max_op = self.rng.choice(KILL_SITES)
        self.point = CrashPoint(site=site, at_op=self.rng.randrange(max_op + 1))
        # Half the runs compact aggressively so recovery exercises the
        # snapshot path, not just raw journal replay.
        self.compact_every = self.rng.choice((0, 4))
        # One ledger spans crash and restart, so the artifact shows each
        # version's whole life across incarnations (including retries).
        self.lineage = LifecycleLedger()

    # ------------------------------------------------------------------
    def _make_viper(self, journal_root, *, recover: bool,
                    crash_plan: Optional[CrashPlan] = None,
                    lineage: Optional[LifecycleLedger] = None) -> Viper:
        journal = MetadataJournal(journal_root, compact_every=self.compact_every)
        return Viper(
            flush_history=True,
            journal=journal,
            recover=recover,
            crash_plan=crash_plan,
            notify_queue_max=4,
            lineage=lineage if lineage is not None else self.lineage,
        )

    def _produce_until(self, viper: Viper, consumer: ViperConsumer,
                       swaps: List[int]) -> None:
        """Publish versions until ``n_versions`` exist; consume pushes."""
        while True:
            versions = viper.metadata.versions(MODEL)
            done = max(versions) if versions else 0
            if done >= self.n_versions:
                return
            viper.save_weights(
                MODEL,
                state_for(done + 1),
                mode=CaptureMode.SYNC,
                strategy=TransferStrategy.HOST_TO_HOST,
            )
            result = consumer.refresh()
            if result is not None:
                swaps.append(result.version)

    # ------------------------------------------------------------------
    def reference_state(self, tmp_root) -> Dict[str, object]:
        """The crash-free end state every recovered run must match."""
        root = os.path.join(str(tmp_root), "reference")
        # The reference run gets its own throwaway ledger so its events
        # never interleave with the crashed run's artifact.
        viper = self._make_viper(root, recover=False, lineage=LifecycleLedger())
        consumer = viper.consumer(model_builder=DictModel)
        consumer.subscribe()
        swaps: List[int] = []
        self._produce_until(viper, consumer, swaps)
        viper.drain()
        state = self._final_state(viper)
        viper.close()
        return state

    def _final_state(self, viper: Viper) -> Dict[str, object]:
        versions = viper.metadata.versions(MODEL)
        contents = {}
        durable = {}
        for v in versions:
            rec, _ = viper.metadata.record(MODEL, v)
            durable[v] = rec.durable
            loaded = viper.load_weights(MODEL, v)
            contents[v] = {k: a.copy() for k, a in loaded.state.items()}
        return {"versions": versions, "durable": durable, "contents": contents}

    # ------------------------------------------------------------------
    def run(self, tmp_root, reference=None) -> HarnessResult:
        """Execute the experiment; ``reference`` is an optional
        :meth:`reference_state` to compare the recovered end state with."""
        root = os.path.join(str(tmp_root), f"run-{self.seed}")
        result = HarnessResult(
            seed=self.seed, site=self.point.site, at_op=self.point.at_op,
            crashed=False,
        )
        try:
            self._run_inner(root, result, reference)
        except AssertionError:
            self._save_artifacts(root)
            raise
        finally:
            self._write_lineage()
        return result

    def _run_inner(self, root: str, result: HarnessResult, reference) -> None:
        plan = CrashPlan(self.point)
        viper = self._make_viper(root, recover=False, crash_plan=plan)
        consumer = viper.consumer(model_builder=DictModel)
        consumer.subscribe()
        last_seq = 0
        try:
            self._produce_until(viper, consumer, result.swaps)
        except SimulatedCrash:
            pass
        # A background (flusher/media) kill never surfaces on the
        # producer thread; the plan's ``dead`` flag is the ground truth.
        last_seq = consumer.last_seq
        if not plan.dead:
            # The drawn (site, at_op) was not reached on the producer
            # thread; drain so pending flushes settle — unless the kill
            # point fires mid-flush right here, which drain surfaces as
            # a fast StorageError from the dead worker.
            try:
                viper.drain()
            except Exception:
                assert plan.dead, "drain failed without a simulated crash"
        result.crashed = plan.dead
        if plan.fired is not None:
            result.crash_site = plan.fired.site
        # The crashed deployment is abandoned exactly as SIGKILL would
        # leave it: no close(), no drain, threads die at the next armed
        # kill point.  A real SIGKILL stops every thread at once; our
        # in-process "death" does not, so wait for the corpse's flusher
        # to finish or die mid-job — otherwise a late journal append
        # could land after the restarted incarnation has replayed.
        if result.crashed:
            self._await_corpse_quiescence(viper)
        # Restart from the same durable journal directory.
        restarted = self._make_viper(root, recover=True)
        result.recovery = dict(restarted.recovery)
        consumer2 = restarted.consumer(model_builder=DictModel)
        consumer2.resubscribe(since=last_seq)
        if consumer2._sub.needs_catchup:
            # One catch-up read replaces the pushes lost in the crash.
            result.stale_polls += 1
            caught = consumer2.refresh(MODEL)
            consumer2._sub.needs_catchup = False
            if caught is not None:
                result.swaps_restarted.append(caught.version)
        self._produce_until(restarted, consumer2, result.swaps_restarted)
        restarted.drain()
        self._assert_equivalent(restarted, consumer2, result)
        if reference is not None:
            final = self._final_state(restarted)
            assert final["versions"] == reference["versions"]
            assert final["durable"] == reference["durable"]
            for v, content in reference["contents"].items():
                for key, arr in content.items():
                    np.testing.assert_array_equal(
                        final["contents"][v][key], arr,
                        err_msg=f"seed {self.seed}: recovered v{v} differs "
                                f"from crash-free reference at {key!r}",
                    )
        restarted.close()
        # Double-restart idempotency: recovering again from the final
        # journal must reproduce the identical metadata state.
        again = self._make_viper(root, recover=True)
        try:
            got = again.metadata.state_dict()
            want = restarted.metadata.state_dict()
            assert got == want, (
                f"seed {self.seed}: second recovery diverged\n"
                f"  replayed: {got}\n  live:     {want}"
            )
        finally:
            again.close()

    # ------------------------------------------------------------------
    @staticmethod
    def _await_corpse_quiescence(viper: Viper, timeout: float = 5.0) -> None:
        """Wait until the dead deployment can no longer touch the journal.

        The flusher is the only background thread that appends journal
        ops; once it is idle (its in-flight job completed before the
        crash took effect — equivalent to dying just after the CAS) or
        dead (it hit an armed kill point), no further appends can occur.
        """
        flusher = viper.handler.flusher
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if flusher._dead or flusher._queue.unfinished_tasks == 0:
                return
            time.sleep(0.002)
        raise AssertionError("dead deployment's flusher never quiesced")

    # ------------------------------------------------------------------
    def _assert_equivalent(self, viper: Viper, consumer: ViperConsumer,
                           result: HarnessResult) -> None:
        ctx = (
            f"seed {self.seed}, kill {self.point.site}@{self.point.at_op}, "
            f"fired={result.crash_site or 'never'}"
        )
        # Invariant 1: no lost durable checkpoint — every version 1..N
        # exists, is durable, and serves bit-identical content.
        versions = viper.metadata.versions(MODEL)
        assert versions == list(range(1, self.n_versions + 1)), (
            f"{ctx}: versions {versions}"
        )
        for v in versions:
            rec, _ = viper.metadata.record(MODEL, v)
            assert rec.durable, f"{ctx}: v{v} not durable after drain"
            loaded = viper.load_weights(MODEL, v)
            expect = state_for(v)
            for key, arr in expect.items():
                np.testing.assert_array_equal(
                    loaded.state[key], arr,
                    err_msg=f"{ctx}: v{v} content mismatch at {key!r}",
                )
        # Invariant 2: no duplicate or regressed swap — within each
        # consumer incarnation the applied versions strictly increase.
        for label, seq in (
            ("pre-crash", result.swaps),
            ("restarted", result.swaps_restarted),
        ):
            assert all(b > a for a, b in zip(seq, seq[1:])), (
                f"{ctx}: {label} swap sequence {seq} not strictly increasing"
            )
        # Invariant 3: the resubscribed consumer converged on the newest
        # version (happy path: via pushes/retained note, at most one
        # catch-up read after a detected gap).
        assert consumer.current_version == self.n_versions, (
            f"{ctx}: consumer at v{consumer.current_version}, "
            f"expected v{self.n_versions}"
        )
        assert result.stale_polls <= 1, (
            f"{ctx}: {result.stale_polls} catch-up polls (expected <= 1)"
        )

    # ------------------------------------------------------------------
    def _save_artifacts(self, root: str) -> None:
        dest_root = os.environ.get("VIPER_CRASH_ARTIFACT_DIR")
        if not dest_root or not os.path.isdir(root):
            return
        dest = os.path.join(dest_root, f"seed-{self.seed}")
        shutil.rmtree(dest, ignore_errors=True)
        shutil.copytree(root, dest)

    def _write_lineage(self) -> None:
        """Persist the run's lineage ledger for CI post-mortems."""
        dest_root = os.environ.get("VIPER_CRASH_ARTIFACT_DIR")
        if not dest_root:
            return
        os.makedirs(dest_root, exist_ok=True)
        self.lineage.write_jsonl(
            os.path.join(dest_root, f"lineage-seed-{self.seed}.jsonl")
        )
