"""Benchmark-owned spans: timing the layers from outside.

The traced run wraps the public methods of the *live instances* a
deployment is made of (``tracer.wrap(obj, "method", "layer.name")`` puts a
timing closure in the instance's ``__dict__``; the class and every other
instance are untouched) and records one span per call:

    (id, name, start, end, parent, trace id)

``id`` numbers spans in call order, ``parent`` is the id of the enclosing
span on the same thread (``-1`` for a root) and the trace id counts the
updates the benchmark has started.  A span's *self time* is its duration
minus the time covered by its child spans, so the self times of one tree sum
to the root's duration exactly.

Per-name durations and self times are kept for every span; the raw span
tuples are kept only up to ``raw_cap`` (the serve workloads produce about
a million spans) and written out at exit.  Nothing here is imported by the
untraced run.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from array import array
from typing import Callable, Dict, List, Tuple

__all__ = ["SpanTracer"]

_now = time.perf_counter


class SpanTracer:
    """In-memory span recorder with per-thread parent stacks."""

    def __init__(self, raw_cap: int = 200_000):
        self.raw_cap = raw_cap
        self.raw: List[Tuple[int, str, float, float, int, int]] = []
        self.dropped = 0
        self._ids = itertools.count()
        self.trace_id = 0
        #: name -> (durations, self times), seconds.
        self.stats: Dict[str, Tuple[array, array]] = {}
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            self._local.root_seconds = 0.0
            return self._local.stack

    def root_seconds(self) -> float:
        """Total duration of the calling thread's parentless spans so far.

        The difference across a stretch of benchmark code is the part of
        that stretch spent inside traced calls — what the per-update sum
        check compares with the stretch's own wall time.
        """
        self._stack()
        return self._local.root_seconds

    def timed(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that every call records one span."""
        durs, selfs = self.stats.setdefault(name, (array("d"), array("d")))
        stack_of = self._stack
        raw = self.raw

        def traced(*args, **kwargs):
            stack = stack_of()
            # frame: [seconds covered by child spans, own id]
            frame = [0.0, next(self._ids)]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                dur = end - start
                durs.append(dur)
                selfs.append(dur - frame[0])
                if parent is not None:
                    parent[0] += dur
                    parent_id = parent[1]
                else:
                    self._local.root_seconds += dur
                    parent_id = -1
                if len(raw) < self.raw_cap:
                    raw.append(
                        (frame[1], name, start, end, parent_id, self.trace_id)
                    )
                else:
                    self.dropped += 1

        return traced

    def wrap(self, obj, attr: str, name: str) -> None:
        """Time ``obj.attr(...)`` as span ``name`` until :meth:`unwrap`.

        Works for bound methods (instance attribute shadows the class
        function) and for module-level functions (``obj`` is the module).
        """
        original = getattr(obj, attr)
        had_own = attr in vars(obj)
        setattr(obj, attr, self.timed(name, original))

        def undo():
            if had_own:
                setattr(obj, attr, original)
            else:
                delattr(obj, attr)

        self._undo.append(undo)

    def unwrap(self) -> None:
        """Remove every wrapper installed by :meth:`wrap`."""
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def median(self, name: str, *, self_time: bool = False) -> float:
        """Median duration (or self time) of ``name`` in seconds; 0 if never
        called."""
        entry = self.stats.get(name)
        if not entry or not entry[0]:
            return 0.0
        return statistics.median(entry[1] if self_time else entry[0])

    def total(self, name: str) -> float:
        return float(sum(self.durations(name)))

    def durations(self, name: str) -> array:
        entry = self.stats.get(name)
        return entry[0] if entry else array("d")

    def layer_table(self) -> List[dict]:
        """One row per span name: calls, median, total and self total."""
        rows = []
        for name in sorted(self.stats):
            durs, selfs = self.stats[name]
            if not durs:
                continue
            rows.append(
                {
                    "span": name,
                    "calls": len(durs),
                    "median_us": statistics.median(durs) * 1e6,
                    "total_ms": sum(durs) * 1e3,
                    "self_total_ms": sum(selfs) * 1e3,
                }
            )
        return rows

    def write(self, path) -> None:
        """Dump the retained raw spans (and how many were not retained)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "columns": [
                        "id", "name", "start", "end", "parent", "trace_id",
                    ],
                    "spans": self.raw,
                    "dropped": self.dropped,
                },
                fh,
            )
