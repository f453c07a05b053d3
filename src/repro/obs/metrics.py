"""Metrics registry: counters, gauges, fixed-bucket histograms.

Instruments are keyed by ``(name, labels)`` — asking the registry for
the same name+labels twice returns the same instrument, so call sites
never coordinate.  All instruments are thread-safe; the engine worker,
the flusher, the notification broker, and the serving thread all write
into one registry concurrently.

Histograms use fixed bucket boundaries (Prometheus-style cumulative
buckets).  Percentiles are *estimates*: linear interpolation inside the
bucket that crosses the requested rank — the classic
``histogram_quantile`` arithmetic — which keeps ``observe`` O(log B)
with bounded memory no matter how many samples arrive.

:class:`NullMetricsRegistry` mirrors the surface with shared no-op
instruments so hot paths can be instrumented unconditionally.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ViperError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "DEFAULT_BUCKETS",
]

LabelItems = Tuple[Tuple[str, str], ...]

#: Default latency-oriented bucket upper bounds, in seconds: 1 µs .. 1000 s
#: on a 1-2.5-5 grid — wide enough for both wall-clock microseconds and
#: simulated PFS transfers of many seconds.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    round(m * 10.0 ** e, 12)
    for e in range(-6, 4)
    for m in (1.0, 2.5, 5.0)
)


class Counter:
    """Monotonically increasing sum."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ViperError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket distribution with cumulative-bucket percentile estimates."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelItems = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ViperError(f"histogram {name!r} needs at least one bucket")
        if any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ViperError(f"histogram {name!r} bucket bounds must be strictly increasing")
        self.name = name
        self.labels = labels
        self.bounds = bounds  # upper bounds; +Inf bucket is implicit
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        v = float(value)
        idx = bisect.bisect_left(self.bounds, v)
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += v
            if v < self._min:
                self._min = v
            if v > self._max:
                self._max = v

    # -- read side -----------------------------------------------------
    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else float("nan")

    @property
    def min(self) -> float:
        with self._lock:
            return self._min if self._count else float("nan")

    @property
    def max(self) -> float:
        with self._lock:
            return self._max if self._count else float("nan")

    def bucket_counts(self) -> Tuple[Tuple[float, int], ...]:
        """Cumulative (upper_bound, count) pairs, ending with +Inf."""
        with self._lock:
            counts = list(self._counts)
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, c in zip(self.bounds + (math.inf,), counts):
            running += c
            out.append((bound, running))
        return tuple(out)

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile (0..1) by in-bucket interpolation.

        Exact at the edges — ``q=0`` returns the observed minimum,
        ``q=1`` the observed maximum, and a single observation reports
        itself at every ``q`` — and every interior estimate is clamped
        to the observed min/max so tiny samples don't report a bucket
        bound no sample ever reached.  Values beyond the last bucket
        bound interpolate between that bound and the observed maximum.
        """
        if not 0.0 <= q <= 1.0:
            raise ViperError(f"quantile {q!r} outside [0, 1]")
        with self._lock:
            counts = list(self._counts)
            total = self._count
            lo, hi = self._min, self._max
        if total == 0:
            return float("nan")
        if q == 0.0:
            return lo
        if q == 1.0 or total == 1:
            return hi
        rank = q * total
        running = 0.0
        for i, c in enumerate(counts):
            if running + c >= rank and c > 0:
                if i < len(self.bounds):
                    lower = self.bounds[i - 1] if i > 0 else min(lo, self.bounds[i])
                    upper = self.bounds[i]
                else:
                    # Overflow bucket: everything here is > bounds[-1]
                    # and <= the observed maximum.
                    lower = max(self.bounds[-1], lo)
                    upper = hi
                frac = (rank - running) / c
                est = lower + frac * (upper - lower)
                return min(max(est, lo), hi)
            running += c
        return hi


class _NullInstrument:
    """Absorbs every write; reads as empty."""

    kind = "null"
    name = ""
    labels: LabelItems = ()
    count = 0
    sum = 0.0
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


def _label_items(labels: Dict[str, object]) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Get-or-create instrument store keyed by name+labels."""

    enabled = True

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: Dict[Tuple[str, LabelItems], object] = {}

    def _get(self, cls, name: str, labels: Dict[str, object], **kwargs):
        key = (name, _label_items(labels))
        with self._lock:
            inst = self._instruments.get(key)
            if inst is None:
                inst = cls(name, key[1], **kwargs)
                self._instruments[key] = inst
            elif not isinstance(inst, cls):
                raise ViperError(
                    f"metric {name!r} already registered as {inst.kind}, "
                    f"requested {cls.kind}"
                )
            return inst

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: object,
    ) -> Histogram:
        kwargs = {} if buckets is None else {"buckets": buckets}
        return self._get(Histogram, name, labels, **kwargs)

    # -- read side -----------------------------------------------------
    def collect(self) -> Tuple[object, ...]:
        """All instruments, sorted by (name, labels) for stable exports."""
        with self._lock:
            items = sorted(self._instruments.items())
        return tuple(inst for _key, inst in items)

    def series(self, *names: str) -> Tuple[object, ...]:
        """Every instrument named one of ``names``, in creation order."""
        wanted = set(names)
        with self._lock:
            return tuple(
                inst for (name, _), inst in self._instruments.items() if name in wanted
            )

    def __iter__(self) -> Iterator[object]:
        return iter(self.collect())

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)


class NullMetricsRegistry(MetricsRegistry):
    """Registry whose instruments absorb everything; the no-op default."""

    enabled = False

    def counter(self, name: str, **labels: object) -> Counter:  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def gauge(self, name: str, **labels: object) -> Gauge:  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def histogram(self, name: str, buckets=None, **labels: object) -> Histogram:  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def collect(self) -> Tuple[object, ...]:
        return ()


#: Shared default for instrumented components.
NULL_METRICS = NullMetricsRegistry()
