"""Exporter format tests: Chrome trace JSON, Prometheus text, JSONL."""

import json
import math
import pathlib
import types

import numpy as np
import pytest

from repro.obs.exporters import (
    chrome_trace,
    prometheus_text,
    spans_to_chrome_events,
    trace_to_chrome_events,
    write_chrome_trace,
    write_jsonl,
    write_jsonl_events,
    write_prometheus,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import SpanTracer
from repro.workflow.trace import Trace


def _tracer_with_spans():
    tracer = SpanTracer()
    parent = tracer.open("checkpoint", track="pipeline", start_sim=1.0, version=1)
    tracer.record("capture", start_sim=1.0, end_sim=1.4, track="producer",
                  parent=parent)
    tracer.record("load", start_sim=2.0, end_sim=2.6, track="consumer",
                  parent=parent)
    tracer.close(parent, end_sim=2.6, outcome="swapped")
    return tracer


def _pipeline_trace():
    trace = Trace()
    trace.add(1.0, "ckpt_begin", "producer", version=1)
    trace.add(1.4, "ckpt_stall_end", "producer", version=1)
    trace.add(1.9, "delivered", "engine", version=1)
    trace.add(2.0, "load_begin", "consumer", version=1)
    trace.add(2.6, "load_done", "consumer", version=1)
    trace.add(2.6, "swap", "consumer", version=1)
    trace.add(3.0, "train_end", "producer", iteration=100)
    return trace


class TestSpansToChrome:
    def test_complete_events_in_microseconds(self):
        events = spans_to_chrome_events(_tracer_with_spans().spans())
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == 3
        capture = next(e for e in xs if e["name"] == "capture")
        assert capture["ts"] == 1.0e6
        assert capture["dur"] == 0.4e6
        parent = next(e for e in xs if e["name"] == "checkpoint")
        assert capture["args"]["parent_id"] == parent["args"]["span_id"]

    def test_metadata_names_tracks(self):
        events = spans_to_chrome_events(_tracer_with_spans().spans())
        meta = {e["args"]["name"]: e["tid"] for e in events if e["ph"] == "M"}
        assert set(meta) == {"pipeline", "producer", "consumer"}
        capture = next(e for e in events if e.get("name") == "capture")
        assert capture["tid"] == meta["producer"]

    def test_unfinished_spans_skipped(self):
        tracer = SpanTracer()
        tracer.open("never-closed")
        assert spans_to_chrome_events(tracer.spans()) == []

    def test_wall_clock_selectable(self):
        tracer = SpanTracer(wall_now=iter([10.0, 10.5]).__next__)
        sp = tracer.open("w", track="t", start_sim=0.0)
        tracer.close(sp, end_sim=0.0)
        (x,) = [e for e in spans_to_chrome_events(tracer.spans(), clock="wall")
                if e["ph"] == "X"]
        assert x["ts"] == 10.0e6
        assert x["dur"] == 0.5e6

    def test_monotonic_ts_per_track(self):
        tracer = SpanTracer()
        for i in range(5):
            tracer.record("s", start_sim=float(4 - i), end_sim=float(5 - i),
                          track="a")
        events = [e for e in spans_to_chrome_events(tracer.spans())
                  if e["ph"] != "M"]
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)


class TestTraceToChrome:
    def test_paired_kinds_become_duration_events(self):
        events = trace_to_chrome_events(_pipeline_trace())
        xs = {e["name"]: e for e in events if e["ph"] == "X"}
        assert set(xs) == {"capture", "transfer", "load"}
        assert xs["capture"]["ts"] == 1.0e6
        assert xs["capture"]["dur"] == 0.4e6
        assert xs["transfer"]["ts"] == 1.4e6
        assert xs["transfer"]["dur"] == 0.5e6
        assert xs["load"]["dur"] == 0.6e6

    def test_unpaired_kinds_become_instants(self):
        events = trace_to_chrome_events(_pipeline_trace())
        instants = {e["name"] for e in events if e["ph"] == "i"}
        assert "swap" in instants
        assert "train_end" in instants

    def test_sync_mode_without_delivered_degrades(self):
        trace = Trace()
        trace.add(1.0, "ckpt_begin", "producer", version=1)
        trace.add(1.4, "ckpt_stall_end", "producer", version=1)
        events = trace_to_chrome_events(trace)
        xs = [e for e in events if e["ph"] == "X"]
        assert [e["name"] for e in xs] == ["capture"]

    def test_kinds_filter(self):
        events = trace_to_chrome_events(_pipeline_trace(), kinds=("swap",))
        named = [e for e in events if e["ph"] != "M"]
        assert [e["name"] for e in named] == ["swap"]


class TestChromeTraceDocument:
    def test_merged_document_shares_track_namespace(self):
        doc = chrome_trace(
            _tracer_with_spans().spans(), _pipeline_trace(), clock="sim"
        )
        events = doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ms"
        assert events, "no events exported"
        meta = {e["args"]["name"]: e["tid"] for e in events if e["ph"] == "M"}
        # "consumer" is both a span track and a trace actor: one lane
        assert len([n for n in meta if n == "consumer"]) == 1
        span_load = [e for e in events
                     if e.get("name") == "load" and "span_id" in e["args"]]
        trace_load = [e for e in events
                      if e.get("name") == "load" and "span_id" not in e["args"]]
        assert span_load and trace_load
        assert span_load[0]["tid"] == trace_load[0]["tid"] == meta["consumer"]

    def test_per_track_ts_monotonic(self):
        doc = chrome_trace(_tracer_with_spans().spans(), _pipeline_trace())
        by_tid = {}
        for e in doc["traceEvents"]:
            if e["ph"] == "M":
                continue
            by_tid.setdefault(e["tid"], []).append(e["ts"])
        for ts in by_tid.values():
            assert ts == sorted(ts)

    def test_written_file_is_valid_json(self, tmp_path):
        path = str(tmp_path / "trace.json")
        assert write_chrome_trace(
            path, spans=_tracer_with_spans().spans(), trace=_pipeline_trace()
        ) == path
        doc = json.loads(open(path, encoding="utf-8").read())
        assert doc["traceEvents"]


class TestPrometheusText:
    def test_counter_and_gauge_lines(self):
        reg = MetricsRegistry()
        reg.counter("reqs_total", model="tc1").inc(3)
        reg.gauge("depth").set(1.5)
        text = prometheus_text(reg)
        assert "# TYPE reqs_total counter" in text
        assert 'reqs_total{model="tc1"} 3' in text
        assert "# TYPE depth gauge" in text
        assert "depth 1.5" in text
        assert text.endswith("\n")

    def test_histogram_series(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", buckets=(1.0, 2.0), stage="load")
        h.observe(0.5)
        h.observe(1.5)
        text = prometheus_text(reg)
        assert "# TYPE lat_seconds histogram" in text
        assert 'lat_seconds_bucket{stage="load",le="1"} 1' in text
        assert 'lat_seconds_bucket{stage="load",le="2"} 2' in text
        assert 'lat_seconds_bucket{stage="load",le="+Inf"} 2' in text
        assert 'lat_seconds_sum{stage="load"} 2' in text
        assert 'lat_seconds_count{stage="load"} 2' in text

    def test_type_header_emitted_once_per_name(self):
        reg = MetricsRegistry()
        reg.counter("reqs", m="a").inc()
        reg.counter("reqs", m="b").inc()
        text = prometheus_text(reg)
        assert text.count("# TYPE reqs counter") == 1

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c", path='a"b\\c\nd').inc()
        text = prometheus_text(reg)
        assert r'path="a\"b\\c\nd"' in text

    def test_empty_registry(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_write_prometheus(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        path = str(tmp_path / "m.prom")
        assert write_prometheus(path, reg) == path
        assert "# TYPE x counter" in open(path, encoding="utf-8").read()


class TestJsonl:
    def test_spans_then_events_one_object_per_line(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        n = write_jsonl_events(
            path, spans=_tracer_with_spans().spans(), trace=_pipeline_trace()
        )
        lines = open(path, encoding="utf-8").read().splitlines()
        assert len(lines) == n == 3 + 7
        objs = [json.loads(line) for line in lines]
        assert [o["type"] for o in objs[:3]] == ["span"] * 3
        assert [o["type"] for o in objs[3:]] == ["event"] * 7
        span = objs[0]
        assert {"name", "span_id", "track", "start_sim", "end_sim",
                "sim_duration", "attrs"} <= set(span)
        event = objs[3]
        assert event["kind"] == "ckpt_begin"
        assert event["data"]["version"] == 1

    def test_unfinished_spans_skipped(self, tmp_path):
        tracer = SpanTracer()
        tracer.open("open")
        path = str(tmp_path / "e.jsonl")
        spans = tracer.open_spans()
        assert write_jsonl_events(path, spans=spans) == 0

    def test_numpy_values_serialize(self, tmp_path):
        import numpy as np

        tracer = SpanTracer()
        tracer.record("s", start_sim=0.0, end_sim=1.0, loss=np.float64(0.5))
        path = str(tmp_path / "np.jsonl")
        write_jsonl_events(path, spans=tracer.spans())
        obj = json.loads(open(path, encoding="utf-8").read())
        assert obj["attrs"]["loss"] == 0.5
        assert not math.isnan(obj["sim_duration"])


def _old_lines(rows, **kw):
    """What the per-writer loops wrote: one ``json.dumps`` per row."""
    return "".join(json.dumps(row, **kw) + "\n" for row in rows)


def _shed_log():
    from repro.errors import OverloadError
    from repro.serving.admission import AdmissionConfig, AdmissionController

    ctrl = AdmissionController(AdmissionConfig(rate=1.0, burst=1.0))
    ctrl.admit(0.0)
    for deadline in (99.0, None):
        with pytest.raises(OverloadError):
            ctrl.admit(0.0, deadline=deadline)
    return ctrl.write_shed_log, _old_lines(list(ctrl.decisions))


def _lease_log():
    from repro.resilience.health import LeaseRegistry

    reg = LeaseRegistry(1.0)
    reg.grant("a", 0.0)
    reg.grant("b", 0.0)
    reg.expire(2.0)
    return reg.write_event_log, _old_lines(reg.events)


def _decision_log():
    from repro.rollout.controller import RolloutController
    from repro.rollout.policy import RolloutPolicy

    consumer = types.SimpleNamespace(viper=None, name="c0")
    ctrl = RolloutController(consumer, "m", RolloutPolicy())
    ctrl._log("stage", 2, 1.5, zeta=1, alpha="ü")
    ctrl._log("rollback", 2, 2.0, reason="nan")
    return ctrl.write_decision_log, _old_lines(ctrl.decisions, sort_keys=True)


def _lineage_log():
    from repro.obs.lineage import LifecycleLedger, TraceContext

    ledger = LifecycleLedger()
    ctx = TraceContext.make("m", 1)
    ledger.record(ctx, "capture", sim_time=0.0, actor="producer",
                  where=pathlib.PurePosixPath("/ckpt/m"))
    ledger.record(ctx, "publish", sim_time=0.5, actor="producer")
    rows = [tr.to_dict() for tr in ledger.transitions()]
    return ledger.write_jsonl, _old_lines(rows, default=str)


def _event_log():
    from repro.obs.exporters import _json_default

    tracer = _tracer_with_spans()
    tracer.record("s", start_sim=3.0, end_sim=4.0, loss=np.float64(0.5))
    trace = _pipeline_trace()
    rows = [
        {"type": "span", "name": sp.name, "span_id": sp.span_id,
         "parent_id": sp.parent_id, "track": sp.track,
         "start_sim": sp.start_sim, "end_sim": sp.end_sim,
         "sim_duration": sp.sim_duration, "wall_duration": sp.wall_duration,
         "attrs": sp.attrs}
        for sp in tracer.spans()
    ] + [
        {"type": "event", "kind": ev.kind, "actor": ev.actor,
         "time": ev.time, "data": ev.data}
        for ev in trace
    ]

    def write(path):
        return write_jsonl_events(path, spans=tracer.spans(), trace=trace)

    return write, _old_lines(rows, default=_json_default)


class TestOneJsonlWriter:
    @pytest.mark.parametrize("source", [
        _shed_log, _lease_log, _decision_log, _lineage_log, _event_log,
    ], ids=lambda f: f.__name__.strip("_"))
    def test_every_log_is_byte_identical_to_its_old_loop(self, source, tmp_path):
        write, expected = source()
        path = tmp_path / "log.jsonl"
        n = write(str(path))
        assert path.read_text(encoding="utf-8") == expected
        assert n == expected.count("\n") > 0

    def test_write_jsonl_counts_a_generator(self, tmp_path):
        path = tmp_path / "g.jsonl"
        assert write_jsonl(path, ({"i": i} for i in range(3))) == 3
        assert write_jsonl(path, []) == 0
        assert path.read_text() == ""
