"""Crash-recovery unit tests: journal, media atomicity, flusher shutdown.

The chaos harness (test_crash_restart.py) exercises these pieces
end-to-end under seeded kill points; this file pins down each piece's
contract in isolation so a harness failure bisects quickly.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import ConfigurationError, JournalError, StorageError
from repro.core.metadata import MetadataStore, ModelRecord
from repro.core.transfer.flush import BackgroundFlusher, FlushJob
from repro.resilience.recovery import (
    CrashPlan,
    CrashPoint,
    MetadataJournal,
    SimulatedCrash,
)
from repro.substrates.memory.storage import TierStore
from repro.substrates.memory.tiers import TierKind, TierSpec


def make_record(name="m", version=1, *, durable=False, location="host_dram"):
    return ModelRecord(
        model_name=name,
        version=version,
        nbytes=1000,
        location=location,
        path=f"{name}/v{version}",
        ntensors=2,
        durable=durable,
    )


def make_store(name="t", capacity=10**9):
    spec = TierSpec(
        name=name,
        kind=TierKind.HOST_DRAM,
        capacity_bytes=capacity,
        read_bw=10**6,
        write_bw=10**6,
    )
    return TierStore(spec)


# ---------------------------------------------------------------------------
# Journal: append / replay
# ---------------------------------------------------------------------------

class TestJournalReplay:
    def test_round_trip(self, tmp_path):
        journal = MetadataJournal(tmp_path)
        store = MetadataStore()
        store.attach_journal(journal)
        store.publish_version(make_record(version=1))
        store.publish_version(make_record(version=2))
        store.compare_and_swap(make_record(version=1, durable=True))
        store.drop_version("m", 2)
        journal.close()

        fresh = MetadataStore()
        replayed = MetadataJournal(tmp_path).replay_into(fresh)
        assert replayed == 4
        assert fresh.state_dict() == store.state_dict()
        assert fresh.versions("m") == [1]
        rec, _ = fresh.record("m", 1)
        assert rec.durable

    def test_replay_is_idempotent(self, tmp_path):
        journal = MetadataJournal(tmp_path)
        store = MetadataStore()
        store.attach_journal(journal)
        for v in (1, 2, 3):
            store.publish_version(make_record(version=v))
        store.drop_version("m", 2)

        fresh = MetadataStore()
        journal.replay_into(fresh)
        once = fresh.state_dict()
        journal.replay_into(fresh)
        assert fresh.state_dict() == once == store.state_dict()

    def test_replay_preserves_monotonic_latest(self, tmp_path):
        """Replaying a prefix that ends on an old version must not let a
        later replayed publish regress the latest pointer."""
        journal = MetadataJournal(tmp_path)
        store = MetadataStore()
        store.attach_journal(journal)
        store.publish_version(make_record(version=2))
        store.publish_version(make_record(version=1))  # out-of-order arrival
        fresh = MetadataStore()
        journal.replay_into(fresh)
        rec, _ = fresh.latest("m")
        assert rec.version == 2

    def test_torn_tail_truncated_and_counted(self, tmp_path):
        journal = MetadataJournal(tmp_path)
        store = MetadataStore()
        store.attach_journal(journal)
        store.publish_version(make_record(version=1))
        journal.close()
        # Simulate a crash mid-append: a final line with no newline.
        with open(journal.journal_path, "ab") as fh:
            fh.write(b'{"seq": 2, "op": "publish", "da')

        reopened = MetadataJournal(tmp_path)
        fresh = MetadataStore()
        assert reopened.replay_into(fresh) == 1
        assert reopened.torn_tail_dropped == 1
        assert fresh.versions("m") == [1]
        # The tail was physically truncated: appends splice on cleanly.
        fresh.attach_journal(reopened)
        fresh.publish_version(make_record(version=2))
        final = MetadataStore()
        MetadataJournal(tmp_path).replay_into(final)
        assert final.versions("m") == [1, 2]

    def test_unreadable_snapshot_raises(self, tmp_path):
        journal = MetadataJournal(tmp_path)
        journal.snapshot_path.write_text("{not json")
        with pytest.raises(JournalError, match="unreadable snapshot"):
            journal.replay_into(MetadataStore())


# ---------------------------------------------------------------------------
# Journal: snapshot / compaction
# ---------------------------------------------------------------------------

class TestJournalCompaction:
    def test_compaction_truncates_and_replays_equivalently(self, tmp_path):
        journal = MetadataJournal(tmp_path, compact_every=2)
        store = MetadataStore()
        store.attach_journal(journal)
        for v in (1, 2, 3, 4, 5):
            store.publish_version(make_record(version=v))
        journal.close()
        assert journal.snapshot_path.exists()
        # The journal holds only the post-snapshot tail.
        assert len(MetadataJournal(tmp_path).entries()) < 5

        fresh = MetadataStore()
        MetadataJournal(tmp_path).replay_into(fresh)
        assert fresh.state_dict() == store.state_dict()

    def test_snapshot_covers_triggering_mutation(self, tmp_path):
        """Regression: the compaction a mutation triggers must snapshot
        state that *includes* that mutation — it claims its seq."""
        journal = MetadataJournal(tmp_path, compact_every=1)
        store = MetadataStore()
        store.attach_journal(journal)
        store.publish_version(make_record(version=1))
        journal.close()

        fresh = MetadataStore()
        MetadataJournal(tmp_path).replay_into(fresh)
        assert fresh.versions("m") == [1]

    def test_replay_skips_seqs_the_snapshot_covers(self, tmp_path):
        journal = MetadataJournal(tmp_path)
        store = MetadataStore()
        store.attach_journal(journal)
        store.publish_version(make_record(version=1))
        journal.compact(store.state_dict())
        # Crash between snapshot write and truncation leaves covered
        # entries behind; re-create one and confirm replay skips it.
        with open(journal.journal_path, "a", encoding="utf-8") as fh:
            import json
            fh.write(json.dumps({
                "seq": 1, "op": "publish",
                "data": make_record(version=1).to_dict(),
            }) + "\n")
        journal.close()
        fresh = MetadataStore()
        assert MetadataJournal(tmp_path).replay_into(fresh) == 0
        assert fresh.versions("m") == [1]

    def test_state_dict_is_canonical(self, tmp_path):
        """Record order is (model, version)-sorted, not insertion order,
        so snapshots and recovery comparisons are deterministic."""
        store = MetadataStore()
        store.publish_version(make_record(version=2))
        store.publish_version(make_record(version=1))
        versions = [r["version"] for r in store.state_dict()["records"]]
        assert versions == [1, 2]


# ---------------------------------------------------------------------------
# Media atomicity (TierStore durable mirror)
# ---------------------------------------------------------------------------

class TestMediaAtomicity:
    def test_attach_load_restores_objects(self, tmp_path):
        store = make_store()
        store.attach_media(tmp_path / "media")
        store.put("a", b"alpha", virtual_bytes=100)
        store.put("b", b"beta", virtual_bytes=200)

        reborn = make_store()
        assert reborn.attach_media(tmp_path / "media", load=True) == 2
        assert reborn.get("a")[0] == b"alpha"
        assert reborn.get("b")[0] == b"beta"
        assert reborn.used_bytes == 300

    def test_delete_removes_media(self, tmp_path):
        store = make_store()
        store.attach_media(tmp_path / "media")
        store.put("a", b"alpha", virtual_bytes=100)
        store.delete("a")
        reborn = make_store()
        assert reborn.attach_media(tmp_path / "media", load=True) == 0

    def test_stray_tmp_discarded_on_load(self, tmp_path):
        media = tmp_path / "media"
        media.mkdir()
        # The footprint of a write that died before its atomic rename.
        (media / "torn.tmp").write_bytes(b"half a checkpoint")
        store = make_store()
        assert store.attach_media(media, load=True) == 0
        assert not (media / "torn.tmp").exists()

    def test_crash_before_rename_leaves_no_object(self, tmp_path):
        store = make_store()
        store.attach_media(tmp_path / "media")
        plan = CrashPlan(CrashPoint(site="media.staged:t", at_op=0))
        store.crashpoints = plan
        with pytest.raises(SimulatedCrash):
            store.put("a", b"alpha", virtual_bytes=100)
        reborn = make_store()
        assert reborn.attach_media(tmp_path / "media", load=True) == 0


# ---------------------------------------------------------------------------
# Crash plan semantics
# ---------------------------------------------------------------------------

class TestCrashPlan:
    def test_fires_at_nth_arrival_then_stays_dead(self):
        plan = CrashPlan(CrashPoint(site="flush.start", at_op=2))
        plan.reached("flush.start")
        plan.reached("flush.start")
        with pytest.raises(SimulatedCrash):
            plan.reached("flush.start")
        assert plan.dead
        # Dead-process semantics: every later arrival anywhere dies too.
        with pytest.raises(SimulatedCrash):
            plan.reached("publish.staged")

    def test_site_patterns_match_fnmatch(self):
        plan = CrashPlan(CrashPoint(site="media.staged:*", at_op=0))
        plan.reached("publish.staged")  # non-matching site just counts
        with pytest.raises(SimulatedCrash):
            plan.reached("media.staged:lustre")


# ---------------------------------------------------------------------------
# Flusher shutdown semantics
# ---------------------------------------------------------------------------

def _make_pfs():
    spec = TierSpec(
        name="pfs",
        kind=TierKind.PFS,
        capacity_bytes=10**9,
        read_bw=10**6,
        write_bw=10**6,
    )
    return TierStore(spec)


def _job(version):
    rec = make_record(version=version, location="gpu")
    return FlushJob(key=rec.path, blob=b"ckpt", record=rec)


class TestFlusherShutdown:
    def test_stop_drains_by_default(self):
        """Regression: a clean stop() must never strand queued jobs."""
        pfs, meta = _make_pfs(), MetadataStore()
        gate = threading.Event()

        def hook(job, attempt):
            gate.wait(5)
            return False

        flusher = BackgroundFlusher(pfs, meta, fail_hook=hook).start()
        for v in (1, 2, 3):
            meta.publish_version(_job(v).record)
            flusher.submit(_job(v))
        stopper = threading.Thread(target=flusher.stop)
        stopper.start()
        # stop() is blocked draining behind the gated first job.
        stopper.join(0.1)
        assert stopper.is_alive()
        gate.set()
        stopper.join(10)
        assert not stopper.is_alive()
        assert flusher.flushed_keys == ("m/v1", "m/v2", "m/v3")
        assert flusher.stranded_keys == ()
        for v in (1, 2, 3):
            assert meta.record("m", v)[0].durable

    def test_stop_without_drain_records_stranded(self):
        pfs, meta = _make_pfs(), MetadataStore()
        entered, gate = threading.Event(), threading.Event()

        def hook(job, attempt):
            entered.set()
            gate.wait(5)
            return False

        flusher = BackgroundFlusher(pfs, meta, fail_hook=hook).start()
        for v in (1, 2):
            meta.publish_version(_job(v).record)
            flusher.submit(_job(v))
        # Job 1 must be in flight (inside the hook) before the abort, or
        # both jobs could be abandoned.
        assert entered.wait(5)
        # stop() sets the abort flag before it joins the worker, so once
        # its (bounded) join has given up the gate can open: job 2 is
        # dequeued only after that and must see the flag.
        flusher.stop(timeout=0.01, drain=False)
        gate.set()
        flusher._thread.join(10)
        assert not flusher._thread.is_alive()
        # Job 1 was already in flight and completes; job 2 is abandoned
        # loudly: recorded stranded, its record still non-durable.
        assert flusher.flushed_keys == ("m/v1",)
        assert flusher.stranded_keys == ("m/v2",)
        assert not meta.record("m", 2)[0].durable

    def test_submit_after_stop_raises(self):
        flusher = BackgroundFlusher(_make_pfs(), MetadataStore()).start()
        flusher.stop()
        with pytest.raises(StorageError, match="stranded"):
            flusher.submit(_job(1))


# ---------------------------------------------------------------------------
# Viper-level recovery wiring
# ---------------------------------------------------------------------------

class TestViperRecovery:
    def test_recover_requires_journal(self):
        from repro.core.api import Viper

        with pytest.raises(ConfigurationError, match="journal"):
            Viper(recover=True)

    def test_restart_restores_metadata_and_counts(self, tmp_path):
        import numpy as np

        from repro.core.api import Viper
        from repro.core.transfer.strategies import CaptureMode

        state = {"w": np.ones((4, 4), dtype=np.float32)}
        viper = Viper(flush_history=True, journal=tmp_path / "j")
        viper.save_weights("m", state, mode=CaptureMode.SYNC)
        viper.save_weights("m", state, mode=CaptureMode.SYNC)
        viper.drain()
        viper.close()

        reborn = Viper(
            flush_history=True, journal=tmp_path / "j", recover=True
        )
        try:
            assert reborn.metadata.versions("m") == [1, 2]
            assert reborn.recovery["replayed_ops"] > 0
            assert reborn.recovery["requeued"] == 0
            snap = reborn.handler.stats.snapshot()
            assert snap.recoveries == 1
            assert snap.replayed_ops == reborn.recovery["replayed_ops"]
            # The version clock resumes after the recovered history.
            reborn.save_weights("m", state, mode=CaptureMode.SYNC)
            assert reborn.metadata.versions("m") == [1, 2, 3]
        finally:
            reborn.close()
