"""Metrics registry tests: instruments, labels, percentiles, Null."""

import math
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ViperError
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
)


class TestCounter:
    def test_inc_accumulates(self):
        c = Counter("hits")
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)

    def test_negative_inc_rejected(self):
        with pytest.raises(ViperError):
            Counter("hits").inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("depth")
        g.set(5)
        g.inc(2)
        g.dec(3)
        assert g.value == pytest.approx(4.0)


class TestHistogram:
    def test_basic_stats(self):
        h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 10.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(15.0)
        assert h.mean == pytest.approx(3.75)
        assert h.min == pytest.approx(0.5)
        assert h.max == pytest.approx(10.0)

    def test_empty_reads_are_nan(self):
        h = Histogram("lat", buckets=(1.0,))
        assert math.isnan(h.mean)
        assert math.isnan(h.min)
        assert math.isnan(h.max)
        assert math.isnan(h.quantile(0.5))

    def test_cumulative_bucket_counts_end_with_inf(self):
        h = Histogram("lat", buckets=(1.0, 2.0))
        for v in (0.5, 0.7, 1.5, 99.0):
            h.observe(v)
        counts = h.bucket_counts()
        assert counts == ((1.0, 2), (2.0, 3), (math.inf, 4))

    def test_boundary_value_lands_in_its_bucket(self):
        # Prometheus buckets are upper-inclusive: observe(le) counts in le.
        h = Histogram("lat", buckets=(1.0, 2.0))
        h.observe(1.0)
        assert h.bucket_counts()[0] == (1.0, 1)

    def test_quantile_interpolates_within_bucket(self):
        h = Histogram("lat", buckets=(0.0, 10.0))
        for v in range(1, 11):  # 1..10, uniform in the (0, 10] bucket
            h.observe(float(v))
        # exact p50 of the uniform sample is 5.5; interpolation gives 5.0
        assert h.quantile(0.5) == pytest.approx(5.0, abs=1.0)
        assert h.quantile(1.0) == pytest.approx(10.0)
        assert h.quantile(0.0) == pytest.approx(1.0)  # clamped to min

    def test_quantile_clamped_to_observed_range(self):
        h = Histogram("lat", buckets=(100.0,))
        h.observe(3.0)
        # one sample in the (0, 100] bucket; naive interpolation would
        # report somewhere inside the bucket, clamping pins it to 3.0
        assert h.quantile(0.99) == pytest.approx(3.0)
        assert h.quantile(0.01) == pytest.approx(3.0)

    def test_quantile_out_of_range_rejected(self):
        h = Histogram("lat", buckets=(1.0,))
        with pytest.raises(ViperError):
            h.quantile(1.5)

    def test_bad_buckets_rejected(self):
        with pytest.raises(ViperError):
            Histogram("lat", buckets=())
        with pytest.raises(ViperError):
            Histogram("lat", buckets=(1.0, 1.0))

    def test_default_buckets_cover_micro_to_kilo_seconds(self):
        assert DEFAULT_BUCKETS[0] == pytest.approx(1e-6)
        assert DEFAULT_BUCKETS[-1] == pytest.approx(5e3)
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_concurrent_observes(self):
        h = Histogram("lat")
        n = 1000

        def worker():
            for i in range(n):
                h.observe(i * 1e-3)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count == 4 * n
        assert h.bucket_counts()[-1][1] == 4 * n


class TestRegistry:
    def test_get_or_create_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("reqs", model="tc1")
        b = reg.counter("reqs", model="tc1")
        assert a is b
        a.inc()
        assert b.value == 1

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.counter("reqs", a="1", b="2")
        b = reg.counter("reqs", b="2", a="1")
        assert a is b
        assert a.labels == (("a", "1"), ("b", "2"))

    def test_different_labels_different_instruments(self):
        reg = MetricsRegistry()
        assert reg.counter("reqs", m="x") is not reg.counter("reqs", m="y")
        assert len(reg) == 2

    def test_label_values_coerced_to_str(self):
        reg = MetricsRegistry()
        assert reg.counter("reqs", version=3) is reg.counter("reqs", version="3")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("thing")
        with pytest.raises(ViperError):
            reg.gauge("thing")

    def test_histogram_custom_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 2.0), stage="load")
        assert h.bounds == (1.0, 2.0)

    def test_collect_sorted_and_iterable(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.counter("a", z="1")
        reg.gauge("a", a="1")
        names = [(i.name, i.labels) for i in reg]
        assert names == sorted(names)
        assert len(reg.collect()) == 3


class TestNullRegistry:
    def test_absorbs_everything(self):
        reg = NullMetricsRegistry()
        assert reg.enabled is False
        assert MetricsRegistry.enabled is True
        reg.counter("x", a="b").inc(5)
        reg.gauge("y").set(3)
        reg.histogram("z").observe(1.0)
        assert reg.collect() == ()

    def test_shared_singleton_instrument(self):
        assert NULL_METRICS.counter("a") is NULL_METRICS.histogram("b")
        inst = NULL_METRICS.counter("a")
        assert inst.value == 0.0
        assert inst.count == 0
        inst.inc()
        inst.dec()
        inst.set(9)
        inst.observe(1.0)
        assert inst.value == 0.0


def reference_quantile(samples, q):
    """Inverse empirical CDF over the sorted raw samples.

    The same rank convention the bucketed estimator uses (rank =
    ``q * n``, take the ``ceil(rank)``-th smallest), so the bucketed
    estimate must land in the same bucket as this reference."""
    ordered = sorted(samples)
    if q == 0.0:
        return ordered[0]
    idx = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[idx]


class TestQuantileProperties:
    """The bucketed estimate vs a sorted-sample reference.

    The histogram only keeps per-bucket counts, so exact agreement is
    impossible — but the estimate must stay inside the observed range,
    be monotone in q, hit the edges exactly, and never stray from the
    reference by more than the width of the bucket it landed in."""

    samples = st.lists(
        st.floats(min_value=1e-6, max_value=1e4,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=120,
    )
    qs = st.floats(min_value=0.0, max_value=1.0,
                   allow_nan=False, allow_infinity=False)

    @settings(max_examples=150, deadline=None)
    @given(samples=samples, q=qs)
    def test_estimate_within_observed_range(self, samples, q):
        h = Histogram("x")
        for s in samples:
            h.observe(s)
        est = h.quantile(q)
        assert min(samples) <= est <= max(samples)

    @settings(max_examples=150, deadline=None)
    @given(samples=samples)
    def test_edges_exact_and_monotone_in_q(self, samples):
        h = Histogram("x")
        for s in samples:
            h.observe(s)
        assert h.quantile(0.0) == min(samples)
        assert h.quantile(1.0) == max(samples)
        grid = [h.quantile(q / 10) for q in range(11)]
        assert all(b >= a - 1e-12 for a, b in zip(grid, grid[1:]))

    @settings(max_examples=150, deadline=None)
    @given(samples=samples, q=qs)
    def test_within_one_bucket_of_reference(self, samples, q):
        h = Histogram("x")
        for s in samples:
            h.observe(s)
        est = h.quantile(q)
        ref = reference_quantile(samples, q)
        # The bucket the reference landed in bounds the possible error.
        bounds = [0.0] + list(h.bounds) + [max(max(samples), h.bounds[-1])]
        width = max(
            hi - lo for lo, hi in zip(bounds, bounds[1:])
            if lo <= ref <= hi
        )
        assert abs(est - ref) <= width + 1e-9

    @settings(max_examples=50, deadline=None)
    @given(sample=st.floats(min_value=1e-6, max_value=1e4,
                            allow_nan=False, allow_infinity=False),
           q=qs)
    def test_single_observation_reports_itself(self, sample, q):
        h = Histogram("x")
        h.observe(sample)
        assert h.quantile(q) == sample
