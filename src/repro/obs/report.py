"""Per-stage latency breakdown of a coupled run's trace.

Decomposes each checkpoint's pipeline into the paper's stages —

- **capture**: ``ckpt_begin -> ckpt_stall_end`` (the training stall);
- **transfer**: ``ckpt_stall_end -> delivered`` (async background wire
  time; zero-duration in sync mode, where delivery completes inside the
  stall);
- **notify**: ``(delivered|ckpt_stall_end) -> notified`` (pub/sub push);
- **wait**: ``notified -> load_begin`` (consumer update thread busy with
  an older load);
- **load**: ``load_begin -> load_done``;
- **swap**: the atomic buffer flip (an instant; counted, not timed) —

and aggregates them into count/mean/percentile statistics.  By
construction the per-checkpoint stage durations sum to the end-to-end
``ckpt_begin -> swap`` latency, which is the consistency check
``python -m repro obs`` prints and the test suite asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # the workflow layer sits above obs: annotations only
    from repro.workflow.trace import Trace

__all__ = [
    "StageStats",
    "StageBreakdown",
    "stage_breakdown",
    "format_stage_table",
    "format_lineage_table",
]

#: Stage emission order for tables and exports.
STAGE_ORDER = ("capture", "transfer", "notify", "wait", "load", "swap", "end_to_end")


@dataclass(frozen=True)
class StageStats:
    """Aggregate statistics over one stage's per-checkpoint durations."""

    stage: str
    durations: Tuple[float, ...]

    @property
    def count(self) -> int:
        return len(self.durations)

    @property
    def total(self) -> float:
        return float(np.sum(self.durations)) if self.durations else 0.0

    @property
    def mean(self) -> float:
        return float(np.mean(self.durations)) if self.durations else float("nan")

    def percentile(self, p: float) -> float:
        if not self.durations:
            return float("nan")
        return float(np.percentile(self.durations, p))


@dataclass(frozen=True)
class StageBreakdown:
    """Stage timings of every checkpoint that completed the pipeline."""

    #: version -> {stage: duration seconds}; only swapped-in checkpoints.
    per_version: Dict[int, Dict[str, float]]
    #: version -> ckpt_begin -> swap, the end-to-end update latency.
    end_to_end: Dict[int, float]
    #: versions that entered the pipeline but were never swapped in.
    unfinished: Tuple[int, ...] = ()

    def stages(self) -> Tuple[StageStats, ...]:
        by_stage: Dict[str, List[float]] = {}
        for stages in self.per_version.values():
            for stage, duration in stages.items():
                by_stage.setdefault(stage, []).append(duration)
        by_stage["end_to_end"] = list(self.end_to_end.values())
        return tuple(
            StageStats(name, tuple(by_stage[name]))
            for name in STAGE_ORDER
            if name in by_stage
        )

    def stage(self, name: str) -> Optional[StageStats]:
        for stats in self.stages():
            if stats.stage == name:
                return stats
        return None


def stage_breakdown(trace: Trace) -> StageBreakdown:
    """Decompose a coupled-run trace into per-checkpoint stage latencies."""
    marks: Dict[int, Dict[str, float]] = {}
    for event in trace:
        version = event.data.get("version")
        if version is None:
            continue
        # First occurrence wins: a version has one of each pipeline mark.
        marks.setdefault(int(version), {}).setdefault(event.kind, event.time)

    per_version: Dict[int, Dict[str, float]] = {}
    end_to_end: Dict[int, float] = {}
    unfinished: List[int] = []
    for version in sorted(marks):
        m = marks[version]
        if "ckpt_begin" not in m:
            continue  # the warm-up model (version 0) has no pipeline
        if "swap" not in m:
            unfinished.append(version)
            continue
        begin = m["ckpt_begin"]
        stall_end = m.get("ckpt_stall_end", begin)
        delivered = m.get("delivered", stall_end)  # sync: inside the stall
        notified = m.get("notified", delivered)
        load_begin = m.get("load_begin", notified)
        load_done = m.get("load_done", load_begin)
        swap = m["swap"]
        per_version[version] = {
            "capture": stall_end - begin,
            "transfer": delivered - stall_end,
            "notify": notified - delivered,
            "wait": load_begin - notified,
            "load": load_done - load_begin,
            "swap": swap - load_done,
        }
        end_to_end[version] = swap - begin
    return StageBreakdown(per_version, end_to_end, tuple(unfinished))


def format_stage_table(breakdown: StageBreakdown) -> str:
    """Fixed-width per-stage latency table (seconds)."""
    header = (
        f"{'stage':<12} {'count':>5} {'mean':>10} {'p50':>10} "
        f"{'p95':>10} {'max':>10} {'total':>10}"
    )
    lines = [header, "-" * len(header)]
    for stats in breakdown.stages():
        if stats.stage == "end_to_end":
            lines.append("-" * len(header))
        lines.append(
            f"{stats.stage:<12} {stats.count:>5} {stats.mean:>10.4f} "
            f"{stats.percentile(50):>10.4f} {stats.percentile(95):>10.4f} "
            f"{stats.percentile(100):>10.4f} {stats.total:>10.4f}"
        )
    stage_sum = sum(
        s.total for s in breakdown.stages() if s.stage != "end_to_end"
    )
    e2e = breakdown.stage("end_to_end")
    lines.append(
        f"stage sum {stage_sum:.4f}s vs end-to-end sum "
        f"{e2e.total if e2e else 0.0:.4f}s over {len(breakdown.end_to_end)} "
        f"checkpoint(s)"
    )
    if breakdown.unfinished:
        lines.append(
            f"unfinished (superseded before swap): "
            f"{', '.join(f'v{v}' for v in breakdown.unfinished)}"
        )
    return "\n".join(lines)


def format_lineage_table(ledger, model_name: str, version: int) -> str:
    """Critical-path breakdown of one version's lifecycle ledger.

    Renders the earliest-per-stage path (capture -> ... -> first_serve)
    with per-edge durations, the trace id(s), the consumers that swapped
    the version live, and any missing required stages.  ``ledger`` is a
    :class:`repro.obs.lineage.LifecycleLedger` (duck-typed to avoid an
    import cycle through the workflow layer).
    """
    life = ledger.lifecycle(model_name, version)
    if not life:
        return f"no lineage recorded for {model_name} v{version}"
    lines = [f"lineage: {model_name} v{version}"]
    trace_ids = ledger.trace_ids(model_name, version)
    lines.append(
        f"trace id: {trace_ids[0]}" if len(trace_ids) == 1
        else f"trace ids (BROKEN CAUSALITY): {', '.join(trace_ids)}"
    )
    header = f"{'edge':<26} {'start':>10} {'end':>10} {'dur':>10}  actor"
    lines += [header, "-" * len(header)]
    path = ledger.critical_path(model_name, version)
    for seg in path:
        lines.append(
            f"{seg.from_stage + ' -> ' + seg.to_stage:<26} "
            f"{seg.start:>10.4f} {seg.end:>10.4f} {seg.duration:>10.4f}  "
            f"{seg.actor}"
        )
    e2e = ledger.end_to_end(model_name, version)
    if e2e == e2e:  # not NaN
        lines.append(f"end-to-end (capture -> first serve): {e2e:.4f}s")
    for tr in life:
        if tr.stage == "transfer" and "wire_bytes" in tr.attrs:
            wire = int(tr.attrs["wire_bytes"])
            total = int(tr.attrs.get("bytes", 0))
            ratio = tr.attrs.get("dedup_ratio")
            line = f"wire: {wire:,} B on wire"
            if total:
                line += f" of {total:,} B ({wire / total:.1%})"
            if ratio is not None:
                line += f", dedup hit ratio {float(ratio):.1%}"
            lines.append(line)
            break
    consumers = ledger.consumers(model_name, version)
    if consumers:
        lines.append(f"swapped on: {', '.join(consumers)}")
    missing = ledger.missing_stages(model_name, version)
    if missing:
        lines.append(f"MISSING STAGES: {', '.join(missing)}")
    lines.append(f"{len(life)} transition(s) recorded")
    return "\n".join(lines)
