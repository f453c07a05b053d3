"""Crash recovery: durable metadata journal and seeded kill points.

The paper's fault-tolerance story stops at flushing historical models to
the PFS (§4.4); everything else — the metadata store's version history,
the flush worker's pending queue, every broker subscription — lives in process
memory and dies with the process.  This module supplies the durable half
of the recovery protocol:

- :class:`MetadataJournal` — a write-ahead journal for
  :class:`~repro.core.metadata.MetadataStore` mutations.  Appends are
  JSONL lines; a snapshot file plus journal truncation (compaction)
  bounds replay time.  Replay is idempotent (replaying any prefix twice
  yields the same store state) and preserves the monotonic
  latest-version invariant, so a recovery interrupted by a second crash
  simply replays again.  The journal is op-agnostic: replay hands every
  entry to ``MetadataStore.apply_journal_op``, so the rollout
  controller's ``quarantine`` ops replay with no journal-side support —
  a recovered deployment re-condemns the same versions and its latest
  pointer lands back on the last-known-good checkpoint, never on a
  quarantined one (quarantine survives crashes by construction, and the
  flush-completion re-CAS of :meth:`~repro.core.transfer.handler.
  ModelWeightsHandler.recover_pending` cannot resurrect a condemned
  record because the store merges quarantine flags into every CAS).
- :class:`CrashPlan` / :class:`SimulatedCrash` — seeded kill points for
  the crash-restart chaos harness.  A plan names one ``(site, op)``
  point; the first thread to reach it dies with :class:`SimulatedCrash`
  (a ``BaseException``, so no retry/except clause on the normal error
  path can swallow it), and every later arrival at *any* armed site dies
  too — the process is dead, not just one call.

The recovery protocol itself (replay -> restore version counters ->
complete/prune non-durable checkpoints -> resubscribe with gap
detection) is driven by :class:`repro.core.api.Viper` with
``journal=...``/``recover=True``; see docs/resilience.md.
"""

from __future__ import annotations

import fnmatch
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import JournalError
from repro.obs.metrics import NULL_METRICS

__all__ = [
    "JournalEntry",
    "MetadataJournal",
    "SimulatedCrash",
    "CrashPoint",
    "CrashPlan",
]


class SimulatedCrash(BaseException):
    """A seeded kill point fired: the simulated process is dead.

    Deliberately a ``BaseException``: the production error handling
    (retry executors, failover chains, ``except StorageError`` clauses)
    must not be able to absorb a process death, exactly as a real
    ``SIGKILL`` cannot be caught.  Only the chaos harness catches it.
    """

    def __init__(self, site: str, op_index: int = 0):
        super().__init__(f"simulated crash at {site} (op {op_index})")
        self.site = site
        self.op_index = op_index


@dataclass(frozen=True)
class CrashPoint:
    """Where a :class:`CrashPlan` kills the process.

    ``site`` is an ``fnmatch`` pattern over kill-point names (e.g.
    ``"flush.staged"`` or ``"publish.*"``); ``at_op`` selects the N-th
    arrival at a matching site (0-based, counted per site).
    """

    site: str
    at_op: int = 0


class CrashPlan:
    """One armed kill point plus dead-process semantics after it fires.

    Thread-safe: the producer thread and the engine and flusher workers
    may all reach armed sites concurrently.  The first matching arrival
    raises; every subsequent :meth:`reached` call from any thread also
    raises, so background threads of a "dead" deployment cannot keep
    mutating durable state behind the harness's back.
    """

    def __init__(self, point: CrashPoint):
        self.point = point
        self._lock = threading.Lock()
        self._op_counts: Dict[str, int] = {}
        self.fired: Optional[SimulatedCrash] = None

    @property
    def dead(self) -> bool:
        return self.fired is not None

    def reached(self, site: str) -> None:
        """Advance the site's op counter; raise if the plan says die."""
        with self._lock:
            if self.fired is not None:
                raise SimulatedCrash(site, self._op_counts.get(site, 0))
            op = self._op_counts.get(site, 0)
            self._op_counts[site] = op + 1
            if fnmatch.fnmatchcase(site, self.point.site) and op == self.point.at_op:
                self.fired = SimulatedCrash(site, op)
                raise self.fired

    def arm(self, viper) -> "CrashPlan":
        """Install this plan's hooks on a deployment (chainable)."""
        viper.handler.crashpoints = self
        viper.cluster.pfs.crashpoints = self
        for node in viper.cluster.nodes:
            node.gpu.crashpoints = self
            node.dram.crashpoints = self
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "dead" if self.dead else "armed"
        return f"CrashPlan({self.point.site!r}@{self.point.at_op}, {state})"


@dataclass(frozen=True)
class JournalEntry:
    """One journaled mutation."""

    seq: int
    op: str
    data: Dict[str, Any]

    def to_line(self) -> str:
        return json.dumps(
            {"seq": self.seq, "op": self.op, "data": self.data},
            separators=(",", ":"),
        )


class MetadataJournal:
    """Write-ahead JSONL journal with snapshot/compaction for metadata.

    Layout under ``root``::

        journal.jsonl    append-only mutation log (one JSON object/line)
        snapshot.json    last compaction's full-store state + its seq

    Appends flush to the OS on every line (``fsync=True`` additionally
    forces the write to stable media); a crash mid-append leaves at most
    one torn final line, which :meth:`replay_into` detects, counts, and
    truncates so subsequent appends never splice onto a torn tail.

    Compaction writes the snapshot atomically (temp file + ``os.replace``)
    *before* truncating the journal, so a crash between the two steps
    leaves entries whose ``seq`` the snapshot already covers — replay
    skips those, and applying them anyway would be idempotent.
    """

    def __init__(
        self,
        root,
        *,
        fsync: bool = False,
        compact_every: int = 0,
        metrics=None,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.compact_every = int(compact_every)
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._lock = threading.Lock()
        self._fh = None
        self._appends_since_compact = 0
        self.torn_tail_dropped = 0
        self._next_seq = self._scan_next_seq()

    @property
    def journal_path(self) -> Path:
        return self.root / "journal.jsonl"

    @property
    def snapshot_path(self) -> Path:
        return self.root / "snapshot.json"

    @property
    def last_seq(self) -> int:
        with self._lock:
            return self._next_seq - 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _scan_next_seq(self) -> int:
        last = 0
        snap = self._read_snapshot()
        if snap is not None:
            last = int(snap.get("seq", 0))
        entries, _ = self._read_entries()
        if entries:
            last = max(last, entries[-1].seq)
        return last + 1

    def _read_snapshot(self) -> Optional[Dict[str, Any]]:
        if not self.snapshot_path.exists():
            return None
        try:
            with open(self.snapshot_path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise JournalError(f"unreadable snapshot {self.snapshot_path}: {exc}")

    def _read_entries(self) -> Tuple[List[JournalEntry], int]:
        """Parse the journal; returns (entries, byte offset of good tail).

        Parsing stops at the first undecodable line — the torn tail a
        crash mid-append leaves — and reports the offset up to which the
        file is intact so the caller can truncate.
        """
        entries: List[JournalEntry] = []
        good_offset = 0
        if not self.journal_path.exists():
            return entries, good_offset
        with open(self.journal_path, "rb") as fh:
            for raw in fh:
                if not raw.endswith(b"\n"):
                    break  # torn: the final newline never made it out
                try:
                    obj = json.loads(raw)
                    entry = JournalEntry(
                        seq=int(obj["seq"]), op=str(obj["op"]), data=obj["data"]
                    )
                except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                    break
                entries.append(entry)
                good_offset += len(raw)
        return entries, good_offset

    def entries(self) -> List[JournalEntry]:
        """The decodable journal tail (excludes snapshotted history)."""
        with self._lock:
            return self._read_entries()[0]

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(self, op: str, data: Dict[str, Any]) -> int:
        """Durably append one mutation; returns its sequence number."""
        with self._lock:
            if self._fh is None:
                self._fh = open(self.journal_path, "ab")
            seq = self._next_seq
            self._next_seq += 1
            entry = JournalEntry(seq=seq, op=op, data=data)
            self._fh.write(entry.to_line().encode("utf-8") + b"\n")
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())
            self._appends_since_compact += 1
            self.metrics.counter("journal_appends_total", op=op).inc()
            return seq

    # ------------------------------------------------------------------
    # Snapshot / compaction
    # ------------------------------------------------------------------
    def maybe_compact(self, state_fn: Callable[[], Dict[str, Any]]) -> bool:
        """Compact when the configured append budget is exhausted."""
        if self.compact_every <= 0:
            return False
        with self._lock:
            if self._appends_since_compact < self.compact_every:
                return False
        self.compact(state_fn())
        return True

    def compact(self, state: Dict[str, Any]) -> None:
        """Write ``state`` as the new snapshot and truncate the journal."""
        with self._lock:
            snap = {"seq": self._next_seq - 1, "state": state}
            tmp = self.snapshot_path.with_suffix(".json.tmp")
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(snap, fh, separators=(",", ":"))
                fh.flush()
                if self.fsync:
                    os.fsync(fh.fileno())
            os.replace(tmp, self.snapshot_path)
            if self._fh is not None:
                self._fh.close()
                self._fh = None
            open(self.journal_path, "wb").close()  # truncate
            self._appends_since_compact = 0
            self.metrics.counter("journal_compactions_total").inc()

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def replay_into(self, store) -> int:
        """Restore a :class:`MetadataStore` from snapshot + journal tail.

        Returns the number of journal operations applied (snapshot load
        excluded).  Truncates any torn tail so appends can resume safely.
        Safe to call more than once: replay is idempotent.
        """
        with self._lock:
            snap = self._read_snapshot()
            snap_seq = 0
            if snap is not None:
                snap_seq = int(snap.get("seq", 0))
                store.load_state(snap.get("state", {}))
            entries, good_offset = self._read_entries()
            if self.journal_path.exists():
                size = self.journal_path.stat().st_size
                if good_offset < size:
                    self.torn_tail_dropped += 1
                    if self._fh is not None:
                        self._fh.close()
                        self._fh = None
                    with open(self.journal_path, "ab") as fh:
                        fh.truncate(good_offset)
            replayed = 0
            for entry in entries:
                if entry.seq <= snap_seq:
                    continue  # the snapshot already covers this mutation
                store.apply_journal_op(entry.op, entry.data)
                replayed += 1
            if entries:
                self._next_seq = max(self._next_seq, entries[-1].seq + 1)
            self._next_seq = max(self._next_seq, snap_seq + 1)
        self.metrics.counter("journal_replays_total").inc()
        return replayed

    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "MetadataJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetadataJournal({str(self.root)!r}, last_seq={self.last_seq})"
