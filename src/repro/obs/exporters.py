"""Exporters: Chrome ``trace_event`` JSON, Prometheus text, JSONL.

Chrome/Perfetto timelines
    :func:`spans_to_chrome_events` turns tracer spans into complete
    (``ph: "X"``) events; :func:`trace_to_chrome_events` renders the
    workflow's :class:`~repro.workflow.trace.Trace` onto the same
    timeline — paired begin/end kinds (capture, transfer, load) become
    duration events, everything else becomes instants.  Both produce
    microsecond ``ts`` sorted ascending, so every track is monotonic.
    ``chrome.load`` the file at ``chrome://tracing`` or `ui.perfetto.dev`.

Prometheus text
    :func:`prometheus_text` writes the exposition format (``# TYPE``
    headers, cumulative ``_bucket``/``_sum``/``_count`` histogram
    series) from a :class:`~repro.obs.metrics.MetricsRegistry`.

JSONL
    :func:`write_jsonl` writes any rows as one JSON object per line, the
    format log-ingestion pipelines eat; :func:`write_jsonl_events` feeds
    it spans and/or trace events, and every decision/event log in the
    package (shed log, lease events, rollout decisions, lineage) goes
    through it.

Lineage
    :func:`lineage_chrome_trace` wraps a
    :class:`~repro.obs.lineage.LifecycleLedger`'s multi-track Chrome
    events into a complete trace document (one track per checkpoint
    version); the ledger's own :meth:`write_jsonl` / the module-level
    :func:`~repro.obs.lineage.read_lineage_jsonl` cover the JSONL
    round trip.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracer import Span

if TYPE_CHECKING:  # the workflow layer sits above obs: annotations only
    from repro.workflow.trace import Trace, TraceEvent

__all__ = [
    "spans_to_chrome_events",
    "trace_to_chrome_events",
    "chrome_trace",
    "write_chrome_trace",
    "lineage_chrome_trace",
    "write_lineage_chrome_trace",
    "prometheus_text",
    "write_prometheus",
    "write_jsonl",
    "write_jsonl_events",
]

#: Workflow trace kinds that pair into duration events, as
#: (begin_kind, end_kind, span_name) — matched per checkpoint version.
TRACE_SPAN_PAIRS: Tuple[Tuple[str, str, str], ...] = (
    ("ckpt_begin", "ckpt_stall_end", "capture"),
    ("ckpt_stall_end", "delivered", "transfer"),
    ("load_begin", "load_done", "load"),
)

_PID = 1


def _us(seconds: float) -> float:
    """Seconds -> microseconds (Chrome's ts unit), sub-µs preserved."""
    return round(seconds * 1e6, 3)


def _track_ids(tracks: Iterable[str]) -> Dict[str, int]:
    return {track: i + 1 for i, track in enumerate(dict.fromkeys(tracks))}


def _thread_metadata(tids: Dict[str, int]) -> List[Dict[str, Any]]:
    return [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": _PID,
            "tid": tid,
            "args": {"name": track},
        }
        for track, tid in tids.items()
    ]


def spans_to_chrome_events(
    spans: Sequence[Span],
    clock: str = "sim",
    tids: Optional[Dict[str, int]] = None,
) -> List[Dict[str, Any]]:
    """Complete-event (``ph: "X"``) records for finished spans.

    ``clock`` selects which timeline feeds ``ts``/``dur``: ``"sim"``
    (simulated seconds) or ``"wall"`` (process perf-counter seconds).
    """
    if clock not in ("sim", "wall"):
        raise ValueError(f"clock must be 'sim' or 'wall', got {clock!r}")
    done = [s for s in spans if s.finished]
    if tids is None:
        tids = _track_ids(s.track for s in done)
    events: List[Dict[str, Any]] = []
    for span in done:
        start = span.start_sim if clock == "sim" else span.start_wall
        dur = span.sim_duration if clock == "sim" else span.wall_duration
        args = dict(span.attrs)
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        args["wall_us" if clock == "sim" else "sim_us"] = _us(
            span.wall_duration if clock == "sim" else span.sim_duration
        )
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": _us(start),
                "dur": max(_us(dur), 0.0),
                "pid": _PID,
                "tid": tids.setdefault(span.track, len(tids) + 1),
                "args": args,
            }
        )
    events.sort(key=lambda e: e["ts"])
    return _thread_metadata(tids) + events


def trace_to_chrome_events(
    trace: Trace,
    kinds: Optional[Sequence[str]] = None,
    tids: Optional[Dict[str, int]] = None,
) -> List[Dict[str, Any]]:
    """Render a workflow :class:`Trace` as Chrome trace events.

    Paired kinds (:data:`TRACE_SPAN_PAIRS`, matched per checkpoint
    version) become duration events on the *end* actor's track; all
    other kinds become instant (``ph: "i"``) events.  ``kinds`` limits
    which event kinds are emitted (default: everything).
    """
    wanted = None if kinds is None else set(kinds)
    events_in = [e for e in trace if wanted is None or e.kind in wanted]
    if tids is None:
        tids = _track_ids(e.actor for e in events_in)

    # Pair up duration events per checkpoint version; a begin without a
    # matching end (superseded mid-pipeline) degrades to an instant.
    open_begin: Dict[Tuple[str, Any], TraceEvent] = {}
    paired: Dict[int, Tuple[TraceEvent, TraceEvent, str]] = {}
    begin_kinds = {b: (e, name) for b, e, name in TRACE_SPAN_PAIRS}
    end_kinds = {e: b for b, e, _ in TRACE_SPAN_PAIRS}
    consumed: set = set()
    for event in events_in:
        version = event.data.get("version")
        if event.kind in begin_kinds and version is not None:
            open_begin[(event.kind, version)] = event
        if event.kind in end_kinds and version is not None:
            begin = open_begin.pop((end_kinds[event.kind], version), None)
            if begin is not None:
                _end_kind, name = begin_kinds[begin.kind]
                paired[id(event)] = (begin, event, name)
                consumed.add(id(begin))
                consumed.add(id(event))

    out: List[Dict[str, Any]] = []
    for event in events_in:
        if id(event) in paired:
            begin, end, name = paired[id(event)]
            out.append(
                {
                    "name": name,
                    "ph": "X",
                    "ts": _us(begin.time),
                    "dur": max(_us(end.time - begin.time), 0.0),
                    "pid": _PID,
                    "tid": tids.setdefault(end.actor, len(tids) + 1),
                    "args": {**begin.data, **end.data},
                }
            )
        elif id(event) not in consumed:
            out.append(
                {
                    "name": event.kind,
                    "ph": "i",
                    "ts": _us(event.time),
                    "pid": _PID,
                    "tid": tids.setdefault(event.actor, len(tids) + 1),
                    "s": "t",  # thread-scoped instant
                    "args": dict(event.data),
                }
            )
    out.sort(key=lambda e: e["ts"])
    return _thread_metadata(tids) + out


def chrome_trace(
    spans: Sequence[Span] = (),
    trace: Optional[Trace] = None,
    *,
    clock: str = "sim",
    trace_kinds: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """Assemble a full Chrome trace document from spans and/or a Trace.

    When both sources are given they share one track-id namespace, so a
    span on track ``"consumer"`` and a trace event from actor
    ``"consumer"`` land in the same lane.
    """
    tids: Dict[str, int] = {}
    events: List[Dict[str, Any]] = []
    meta_seen: set = set()
    for chunk in (
        spans_to_chrome_events(spans, clock=clock, tids=tids) if spans else [],
        trace_to_chrome_events(trace, kinds=trace_kinds, tids=tids)
        if trace is not None
        else [],
    ):
        for event in chunk:
            if event["ph"] == "M":
                key = (event["tid"], event["args"]["name"])
                if key in meta_seen:
                    continue
                meta_seen.add(key)
            events.append(event)
    metadata = [e for e in events if e["ph"] == "M"]
    timed = sorted((e for e in events if e["ph"] != "M"), key=lambda e: e["ts"])
    return {"traceEvents": metadata + timed, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, spans: Sequence[Span] = (), trace: Optional[Trace] = None, **kwargs: Any) -> str:
    """Write :func:`chrome_trace` output to ``path``; returns the path."""
    doc = chrome_trace(spans, trace, **kwargs)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, default=_json_default)
    return path


# ----------------------------------------------------------------------
# Lineage -> Chrome trace
# ----------------------------------------------------------------------
def lineage_chrome_trace(ledger) -> Dict[str, Any]:
    """A full Chrome trace document from a lifecycle ledger.

    One track per checkpoint version: critical-path edges as duration
    events, every recorded transition as an instant.
    """
    return {"traceEvents": ledger.to_chrome_events(), "displayTimeUnit": "ms"}


def write_lineage_chrome_trace(path: str, ledger) -> str:
    """Write :func:`lineage_chrome_trace` to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(lineage_chrome_trace(ledger), fh, default=_json_default)
    return path


# ----------------------------------------------------------------------
# Prometheus exposition format
# ----------------------------------------------------------------------
def _fmt_labels(labels, extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    items = tuple(labels) + extra
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in items)
    return "{" + body + "}"


def _escape(value: str) -> str:
    return str(value).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _fmt_value(v: float) -> str:
    if math.isinf(v):
        return "+Inf" if v > 0 else "-Inf"
    if float(v).is_integer():
        return str(int(v))
    return repr(float(v))


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render every instrument in Prometheus' text exposition format."""
    lines: List[str] = []
    typed: set = set()
    for inst in registry.collect():
        if inst.name not in typed:
            lines.append(f"# TYPE {inst.name} {inst.kind}")
            typed.add(inst.name)
        if isinstance(inst, (Counter, Gauge)):
            lines.append(f"{inst.name}{_fmt_labels(inst.labels)} {_fmt_value(inst.value)}")
        elif isinstance(inst, Histogram):
            for bound, cumulative in inst.bucket_counts():
                le = _fmt_labels(inst.labels, (("le", _fmt_value(bound)),))
                lines.append(f"{inst.name}_bucket{le} {cumulative}")
            lines.append(f"{inst.name}_sum{_fmt_labels(inst.labels)} {_fmt_value(inst.sum)}")
            lines.append(f"{inst.name}_count{_fmt_labels(inst.labels)} {inst.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(path: str, registry: MetricsRegistry) -> str:
    """Write :func:`prometheus_text` output to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(prometheus_text(registry))
    return path


# ----------------------------------------------------------------------
# JSONL event logs
# ----------------------------------------------------------------------
def _json_default(obj: Any) -> Any:
    try:
        import numpy as np

        if isinstance(obj, np.generic):
            return obj.item()
    except Exception:  # pragma: no cover - numpy always present here
        pass
    return str(obj)


def write_jsonl(
    path: str,
    rows: Iterable[Any],
    *,
    sort_keys: bool = False,
    default: Optional[Callable[[Any], Any]] = None,
) -> int:
    """Write each of ``rows`` as one JSON object per line (``json.dumps``
    with ``sort_keys`` and ``default``); returns the number of lines."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=sort_keys, default=default) + "\n")
            n += 1
    return n


def write_jsonl_events(
    path: str,
    spans: Sequence[Span] = (),
    trace: Optional[Trace] = None,
) -> int:
    """One JSON object per line: spans first, then raw trace events.

    Returns the number of lines written.
    """
    span_rows = (
        {
            "type": "span",
            "name": span.name,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "track": span.track,
            "start_sim": span.start_sim,
            "end_sim": span.end_sim,
            "sim_duration": span.sim_duration,
            "wall_duration": span.wall_duration,
            "attrs": span.attrs,
        }
        for span in spans
        if span.finished
    )
    event_rows = (
        {
            "type": "event",
            "kind": event.kind,
            "actor": event.actor,
            "time": event.time,
            "data": event.data,
        }
        for event in (() if trace is None else trace)
    )
    return write_jsonl(
        path, itertools.chain(span_rows, event_rows), default=_json_default
    )
