"""Checkpoint lineage: causal trace contexts and per-version ledgers.

Every checkpoint version gets a :class:`TraceContext` at capture — a
trace id plus the producing span's id — which is then *carried*, not
re-derived, through every actor that touches the version: stamped into
the :class:`~repro.core.metadata.ModelRecord` (which the background
history flush reads it from), the broker
:class:`~repro.core.notification.Notification`, and the pipelined
transfer's chunk spans.  Each actor appends a timestamped
:class:`Transition` to the shared :class:`LifecycleLedger`, so one
version's life::

    capture -> transfer -> publish -> notify -> [flush] -> [load]
            -> swap -> first_serve

reconstructs as a single cross-actor distributed trace — even once the
actors become separate processes, because the context travels as a
compact string header (see :meth:`TraceContext.to_header`), not as a
shared Python object.

Wire format (one line, ';'-separated, no escaping — field values must
not contain ';')::

    <trace_id>;<span_id>;<model_name>;<version>

The ledger exports to JSONL (one transition per line, round-trippable
via :func:`read_lineage_jsonl`) and to Chrome ``trace_event`` JSON with
one track per version (critical-path segments as duration events,
every transition as an instant).

:class:`NullLineage` keeps the null-object contract: uninstrumented hot
paths pay one attribute load and a no-op call.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ViperError
from repro.obs.exporters import write_jsonl

__all__ = [
    "TraceContext",
    "Transition",
    "LifecycleLedger",
    "NullLineage",
    "NULL_LINEAGE",
    "LIFECYCLE_STAGES",
    "REQUIRED_STAGES",
    "read_lineage_jsonl",
]

#: Every stage a checkpoint version can pass through, in canonical
#: pipeline order.  The order only breaks timestamp ties; actual
#: ordering is by simulated time.
LIFECYCLE_STAGES: Tuple[str, ...] = (
    "capture",      # producer finished the checkpoint stall
    "transfer",     # blob staged in consumer-side reach (or PFS)
    "publish",      # metadata record registered, version visible
    "notify",       # broker delivered the update notification
    "flush",        # background flusher made the version durable
    "load",         # a consumer finished fetch+deserialize
    "swap",         # double-buffer flip: version is live on a consumer
    "first_serve",  # first inference served from this version
)

#: The stages every delivered version must exhibit for its ledger to be
#: considered complete (gap-free).  ``flush`` and ``load`` are optional
#: detail: flushing is configuration-dependent and loads are folded into
#: the swap on the DES substrate.
REQUIRED_STAGES: Tuple[str, ...] = (
    "capture", "transfer", "publish", "notify", "swap", "first_serve",
)

_STAGE_RANK: Dict[str, int] = {s: i for i, s in enumerate(LIFECYCLE_STAGES)}

#: Process-wide trace-id sequence; deterministic per run (no clocks, no
#: randomness) so replays and resumed runs produce stable ids.
_TRACE_IDS = itertools.count(1)


@dataclass(frozen=True)
class TraceContext:
    """Causal identity of one checkpoint version's distributed trace."""

    trace_id: str
    span_id: int            # parent span id on the producing side
    model_name: str
    version: int

    @classmethod
    def make(cls, model_name: str, version: int) -> "TraceContext":
        """Mint a fresh context at capture time (span_id 0 = root)."""
        if ";" in model_name:
            raise ViperError(
                f"model name {model_name!r} cannot contain ';' "
                f"(reserved by the trace header wire format)"
            )
        trace_id = f"{model_name}-v{version}-{next(_TRACE_IDS):06x}"
        return cls(trace_id, 0, model_name, int(version))

    def child(self, span_id: int) -> "TraceContext":
        """The same trace, re-parented under ``span_id``."""
        return TraceContext(self.trace_id, int(span_id), self.model_name, self.version)

    # -- wire form -----------------------------------------------------
    def to_header(self) -> str:
        """Compact one-line header carried in metadata/notifications."""
        return f"{self.trace_id};{self.span_id};{self.model_name};{self.version}"

    @classmethod
    def from_header(cls, header: str) -> "TraceContext":
        parts = header.split(";")
        if len(parts) != 4:
            raise ViperError(f"malformed trace header {header!r}")
        trace_id, span_id, model_name, version = parts
        try:
            return cls(trace_id, int(span_id), model_name, int(version))
        except ValueError as exc:
            raise ViperError(f"malformed trace header {header!r}") from exc


@dataclass(frozen=True)
class Transition:
    """One timestamped lifecycle state transition of one version."""

    trace_id: str
    span_id: int
    model_name: str
    version: int
    stage: str
    sim_time: float
    wall_time: float
    actor: str
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "lineage",
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "model_name": self.model_name,
            "version": self.version,
            "stage": self.stage,
            "sim_time": self.sim_time,
            "wall_time": self.wall_time,
            "actor": self.actor,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Transition":
        return cls(
            trace_id=data["trace_id"],
            span_id=int(data["span_id"]),
            model_name=data["model_name"],
            version=int(data["version"]),
            stage=data["stage"],
            sim_time=float(data["sim_time"]),
            wall_time=float(data.get("wall_time", 0.0)),
            actor=data.get("actor", ""),
            attrs=dict(data.get("attrs", {})),
        )


@dataclass(frozen=True)
class PathSegment:
    """One edge of a version's critical path (earliest-per-stage)."""

    from_stage: str
    to_stage: str
    start: float
    end: float
    actor: str

    @property
    def duration(self) -> float:
        return self.end - self.start


_CHROME_PID = 1


def _us(seconds: float) -> float:
    return round(seconds * 1e6, 3)


class LifecycleLedger:
    """Thread-safe per-version record of lifecycle state transitions.

    All writers (producer thread, engine worker, flusher, consumer
    update threads, serving threads) append concurrently; readers get
    immutable snapshots.
    """

    enabled = True

    def __init__(self, wall_now=time.perf_counter):
        self._wall_now = wall_now
        self._lock = threading.Lock()
        self._transitions: List[Transition] = []
        self._by_version: Dict[Tuple[str, int], List[Transition]] = {}
        self._once: set = set()

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------
    def record(
        self,
        ctx: TraceContext,
        stage: str,
        *,
        sim_time: float,
        actor: str,
        **attrs: Any,
    ) -> Optional[Transition]:
        """Append one transition under ``ctx``'s trace."""
        tr = Transition(
            trace_id=ctx.trace_id,
            span_id=ctx.span_id,
            model_name=ctx.model_name,
            version=ctx.version,
            stage=stage,
            sim_time=float(sim_time),
            wall_time=self._wall_now(),
            actor=actor,
            attrs=dict(attrs),
        )
        key = (ctx.model_name, ctx.version)
        with self._lock:
            self._transitions.append(tr)
            self._by_version.setdefault(key, []).append(tr)
        return tr

    def record_header(
        self,
        header: str,
        stage: str,
        *,
        sim_time: float,
        actor: str,
        **attrs: Any,
    ) -> Optional[Transition]:
        """Like :meth:`record` but from the wire-form header.

        An empty header (a record produced before lineage was armed, or
        by an uninstrumented producer) is silently skipped — lineage
        degrades, it never breaks the data path.
        """
        if not header:
            return None
        return self.record(
            TraceContext.from_header(header), stage,
            sim_time=sim_time, actor=actor, **attrs,
        )

    def record_once(
        self,
        header: str,
        stage: str,
        *,
        sim_time: float,
        actor: str,
        **attrs: Any,
    ) -> Optional[Transition]:
        """Record at most one ``(version, stage, actor)`` transition.

        Used for ``first_serve``: every request checks in, only the
        first one per (consumer, version) lands in the ledger.
        """
        if not header:
            return None
        ctx = TraceContext.from_header(header)
        key = (ctx.model_name, ctx.version, stage, actor)
        with self._lock:
            if key in self._once:
                return None
            self._once.add(key)
        return self.record(ctx, stage, sim_time=sim_time, actor=actor, **attrs)

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def models(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted({m for (m, _v) in self._by_version}))

    def versions(self, model_name: str) -> List[int]:
        with self._lock:
            return sorted(v for (m, v) in self._by_version if m == model_name)

    def transitions(self) -> Tuple[Transition, ...]:
        with self._lock:
            return tuple(self._transitions)

    def lifecycle(self, model_name: str, version: int) -> Tuple[Transition, ...]:
        """One version's transitions, ordered by (sim time, stage rank)."""
        with self._lock:
            items = list(self._by_version.get((model_name, version), ()))
        items.sort(key=lambda t: (t.sim_time, _STAGE_RANK.get(t.stage, 99)))
        return tuple(items)

    def stages(self, model_name: str, version: int) -> Tuple[str, ...]:
        """Distinct stages this version passed through, pipeline-ordered."""
        seen = {t.stage for t in self.lifecycle(model_name, version)}
        return tuple(s for s in LIFECYCLE_STAGES if s in seen) + tuple(
            sorted(seen - set(LIFECYCLE_STAGES))
        )

    def missing_stages(
        self,
        model_name: str,
        version: int,
        require: Sequence[str] = REQUIRED_STAGES,
    ) -> Tuple[str, ...]:
        present = set(self.stages(model_name, version))
        return tuple(s for s in require if s not in present)

    def complete(
        self,
        model_name: str,
        version: int,
        require: Sequence[str] = REQUIRED_STAGES,
    ) -> bool:
        """True when the version's ledger is gap-free over ``require``."""
        return not self.missing_stages(model_name, version, require)

    def trace_ids(self, model_name: str, version: int) -> Tuple[str, ...]:
        """Distinct trace ids seen for one version (one == causally linked)."""
        return tuple(sorted({
            t.trace_id for t in self.lifecycle(model_name, version)
        }))

    def consumers(self, model_name: str, version: int) -> Tuple[str, ...]:
        """Actors that swapped this version live."""
        return tuple(sorted({
            t.actor for t in self.lifecycle(model_name, version)
            if t.stage == "swap"
        }))

    def critical_path(self, model_name: str, version: int) -> List[PathSegment]:
        """Earliest-per-stage edges from capture to first serve.

        With a fan-out of consumers each stage may occur many times; the
        critical path follows the *earliest* occurrence of each stage —
        the fastest route a byte of this version took to serving.
        """
        earliest: Dict[str, Transition] = {}
        for tr in self.lifecycle(model_name, version):
            cur = earliest.get(tr.stage)
            if cur is None or tr.sim_time < cur.sim_time:
                earliest[tr.stage] = tr
        ordered = sorted(
            earliest.values(),
            key=lambda t: (t.sim_time, _STAGE_RANK.get(t.stage, 99)),
        )
        return [
            PathSegment(
                from_stage=a.stage, to_stage=b.stage,
                start=a.sim_time, end=b.sim_time, actor=b.actor,
            )
            for a, b in zip(ordered, ordered[1:])
        ]

    def end_to_end(self, model_name: str, version: int) -> float:
        """capture -> first first_serve, in simulated seconds (NaN if open)."""
        life = self.lifecycle(model_name, version)
        start = [t for t in life if t.stage == "capture"]
        end = [t for t in life if t.stage == "first_serve"]
        if not start or not end:
            return float("nan")
        return min(t.sim_time for t in end) - min(t.sim_time for t in start)

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------
    def to_chrome_events(self) -> List[Dict[str, Any]]:
        """Chrome ``trace_event`` records: one track per version.

        Critical-path edges are duration (``ph: "X"``) events named
        ``a->b``; every transition is additionally an instant, so the
        multi-consumer fan-out (one swap per replica) stays visible.
        """
        tids: Dict[str, int] = {}
        events: List[Dict[str, Any]] = []
        for model_name in self.models():
            for version in self.versions(model_name):
                track = f"{model_name}/v{version}"
                tid = tids.setdefault(track, len(tids) + 1)
                for seg in self.critical_path(model_name, version):
                    events.append({
                        "name": f"{seg.from_stage}->{seg.to_stage}",
                        "ph": "X",
                        "ts": _us(seg.start),
                        "dur": max(_us(seg.duration), 0.0),
                        "pid": _CHROME_PID,
                        "tid": tid,
                        "args": {"actor": seg.actor},
                    })
                for tr in self.lifecycle(model_name, version):
                    events.append({
                        "name": tr.stage,
                        "ph": "i",
                        "ts": _us(tr.sim_time),
                        "pid": _CHROME_PID,
                        "tid": tid,
                        "s": "t",
                        "args": {
                            "trace_id": tr.trace_id,
                            "actor": tr.actor,
                            **tr.attrs,
                        },
                    })
        events.sort(key=lambda e: e["ts"])
        metadata = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _CHROME_PID,
                "tid": tid,
                "args": {"name": track},
            }
            for track, tid in tids.items()
        ]
        return metadata + events

    def write_jsonl(self, path: str) -> int:
        """One transition per line; returns the number of lines written."""
        return write_jsonl(
            path, [tr.to_dict() for tr in self.transitions()], default=str
        )

    def load_transitions(self, transitions: Sequence[Transition]) -> None:
        """Bulk-append already-built transitions (the re-parse path)."""
        with self._lock:
            for tr in transitions:
                self._transitions.append(tr)
                self._by_version.setdefault(
                    (tr.model_name, tr.version), []
                ).append(tr)

    def __len__(self) -> int:
        with self._lock:
            return len(self._transitions)


def read_lineage_jsonl(path: str) -> LifecycleLedger:
    """Rebuild a :class:`LifecycleLedger` from a :meth:`write_jsonl` file.

    Non-lineage lines (the file may interleave span/event records from
    :func:`repro.obs.exporters.write_jsonl_events`) are skipped.
    """
    ledger = LifecycleLedger()
    transitions: List[Transition] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            data = json.loads(line)
            if data.get("type") == "lineage":
                transitions.append(Transition.from_dict(data))
    ledger.load_transitions(transitions)
    return ledger


class NullLineage(LifecycleLedger):
    """Do-nothing ledger: every operation is a constant-time no-op."""

    enabled = False

    def record(self, ctx, stage, *, sim_time, actor, **attrs):  # type: ignore[override]
        return None

    def record_header(self, header, stage, *, sim_time, actor, **attrs):  # type: ignore[override]
        return None

    def record_once(self, header, stage, *, sim_time, actor, **attrs):  # type: ignore[override]
        return None

    def load_transitions(self, transitions) -> None:  # type: ignore[override]
        pass


#: Shared default: instrumented components use this when no ledger is given.
NULL_LINEAGE = NullLineage()
