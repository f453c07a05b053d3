"""Property-based tests (hypothesis) on core invariants.

Each property targets an invariant the rest of the system leans on:
cost algebra, tier-store accounting, serialization roundtrips, Eq. 1
monotonicity, Algorithm 1 conservation, schedule validity, double-buffer
version monotonicity, and CIL accounting conservation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.substrates.cost import Cost
from repro.substrates.memory.storage import EvictionPolicy, TierStore
from repro.substrates.memory.tiers import TierKind, TierSpec
from repro.dnn.serialization import H5LikeSerializer, ViperSerializer
from repro.core.predictor.cilp import CILParams, CILPredictor, cil_window
from repro.core.predictor.schedules import (
    epoch_schedule,
    fixed_interval_schedule,
    greedy_schedule,
)
from repro.core.predictor.tlp import smooth_losses
from repro.core.transfer.double_buffer import DoubleBuffer
from repro.workflow.consumer import VersionSwitch, cil_from_switches

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

finite_seconds = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
labels = st.sampled_from(["pfs.write", "link.ib", "serialize", "metadata.read"])
costs = st.lists(
    st.tuples(labels, finite_seconds), min_size=0, max_size=6
).map(lambda items: Cost(tuple(items)))

params_strategy = st.builds(
    CILParams,
    t_train=st.floats(0.001, 1.0),
    t_p=st.floats(0.0, 5.0),
    t_c=st.floats(0.0, 5.0),
    t_infer=st.floats(0.001, 0.5),
)


class TestCostAlgebra:
    @given(costs, costs)
    def test_addition_totals(self, a, b):
        assert (a + b).total == pytest.approx(a.total + b.total)

    @given(costs, costs, costs)
    def test_addition_associative_in_total(self, a, b, c):
        assert ((a + b) + c).total == pytest.approx((a + (b + c)).total)

    @given(costs)
    def test_zero_identity(self, a):
        assert (a + Cost.zero()).total == pytest.approx(a.total)

    @given(costs, st.floats(0.0, 100.0))
    def test_scaling_linear(self, a, k):
        assert a.scaled(k).total == pytest.approx(a.total * k)

    @given(costs)
    def test_breakdown_sums_to_total(self, a):
        assert sum(a.breakdown().values()) == pytest.approx(a.total)


class TestTierStoreAccounting:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c", "d"]),
                st.binary(min_size=0, max_size=64),
                st.integers(0, 100),
            ),
            max_size=30,
        )
    )
    def test_used_bytes_matches_contents(self, operations):
        spec = TierSpec(
            name="t", kind=TierKind.HOST_DRAM, capacity_bytes=100_000,
            read_bw=1.0, write_bw=1.0,
        )
        store = TierStore(spec)
        for key, payload, vbytes in operations:
            store.put(key, payload, virtual_bytes=vbytes)
        expected = sum(store.stat(k).virtual_bytes for k in store.keys())
        assert store.used_bytes == expected
        assert store.free_bytes == spec.capacity_bytes - expected

    @given(
        st.lists(
            st.tuples(st.text(min_size=1, max_size=8), st.integers(1, 40)),
            min_size=1,
            max_size=25,
        )
    )
    def test_lru_never_exceeds_capacity(self, writes):
        spec = TierSpec(
            name="t", kind=TierKind.HOST_DRAM, capacity_bytes=100,
            read_bw=1.0, write_bw=1.0,
        )
        store = TierStore(spec, eviction=EvictionPolicy.LRU)
        for key, vbytes in writes:
            store.put(key, b"x", virtual_bytes=vbytes)
            assert store.used_bytes <= spec.capacity_bytes


ARRAY_DTYPES = [np.float32, np.float64, np.int32, np.int64, np.uint8]


@st.composite
def state_dicts(draw):
    n = draw(st.integers(1, 5))
    state = {}
    for i in range(n):
        name = f"t{i}/" + draw(st.text(min_size=1, max_size=10))
        dtype = draw(st.sampled_from(ARRAY_DTYPES))
        shape = tuple(draw(st.lists(st.integers(0, 4), min_size=0, max_size=3)))
        seed = draw(st.integers(0, 2**31))
        rng = np.random.default_rng(seed)
        values = rng.integers(-100, 100, size=shape).astype(dtype)
        state[name] = values
    return state


class TestSerializationRoundtrip:
    @given(state_dicts())
    @settings(max_examples=40, deadline=None)
    def test_viper_roundtrip(self, state):
        ser = ViperSerializer()
        back = ser.loads(ser.dumps(state))
        assert set(back) == set(state)
        for key in state:
            assert back[key].dtype == state[key].dtype
            assert back[key].shape == state[key].shape
            np.testing.assert_array_equal(back[key], state[key])

    @given(state_dicts())
    @settings(max_examples=20, deadline=None)
    def test_h5like_roundtrip(self, state):
        ser = H5LikeSerializer()
        back = ser.loads(ser.dumps(state))
        for key in state:
            np.testing.assert_array_equal(back[key], state[key])


class TestEq1Monotonicity:
    @given(
        params_strategy,
        st.integers(1, 50),
        st.lists(st.floats(0.0, 500.0), min_size=2, max_size=20),
    )
    def test_iters_monotone_in_time(self, params, interval, times):
        pred = CILPredictor(lambda x: 1.0, params)
        times = sorted(times)
        iters = [pred.iters_at_time(t, interval) for t in times]
        assert all(b >= a for a, b in zip(iters, iters[1:]))

    @given(params_strategy, st.integers(1, 50), st.floats(0.0, 500.0))
    def test_iters_bounded_by_pure_training(self, params, interval, t):
        """Stalls can only slow iteration progress, never speed it up."""
        pred = CILPredictor(lambda x: 1.0, params)
        got = pred.iters_at_time(t, interval)
        assert got <= int(t / params.t_train) + 1


class TestAlgorithm1Conservation:
    @given(
        params_strategy,
        st.integers(1, 100),
        st.floats(0.0, 10.0),
        st.integers(1, 5),
        st.integers(0, 10_000),
    )
    def test_window_accounting(self, params, inter, loss, ver, rem):
        acc, infers = cil_window(inter, loss, ver, rem, params)
        assert 0 <= infers <= rem
        assert acc == pytest.approx(loss * infers)


class TestScheduleValidity:
    @given(
        st.integers(0, 50),
        st.integers(1, 200),
        st.integers(1, 60),
    )
    def test_epoch_schedule_in_range(self, start, span, ipe):
        end = start + span
        schedule = epoch_schedule(start, end, ipe)
        for it in schedule.iterations:
            assert start < it <= end
            assert it % ipe == 0

    @given(
        params_strategy,
        st.integers(0, 20),
        st.integers(5, 80),
        st.integers(1, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_fixed_schedule_regular_and_in_range(self, params, start, span, infers):
        end = start + span
        schedule = fixed_interval_schedule(
            start, end, infers, lambda x: 1.0 / (1 + x), params, max_interval=20
        )
        assert all(start < it <= end for it in schedule.iterations)
        gaps = set(np.diff((start,) + schedule.iterations))
        assert gaps <= {schedule.interval}

    @given(
        params_strategy,
        st.floats(0.001, 1.0),
        st.integers(5, 100),
    )
    @settings(max_examples=30, deadline=None)
    def test_greedy_iterations_strictly_increasing(self, params, thresh, span):
        schedule = greedy_schedule(
            0, span, 1000, thresh, lambda x: 5.0 * np.exp(-0.1 * x), params
        )
        its = schedule.iterations
        assert all(b > a for a, b in zip(its, its[1:]))
        assert all(0 < it <= span for it in its)


class TestDoubleBufferProperty:
    @given(st.lists(st.integers(1, 1000), min_size=1, max_size=50))
    def test_versions_monotone_under_any_update_order(self, versions):
        buf = DoubleBuffer("m0", version=0)
        applied = 0
        for v in versions:
            try:
                buf.update(f"m{v}", v)
                applied += 1
            except Exception:
                pass  # stale updates rejected
        # Live version is the max applied prefix-max.
        assert buf.version == max([0] + [v for v in versions if v <= buf.version])
        assert buf.swaps == applied


class TestCILConservation:
    @given(
        st.lists(st.floats(0.01, 100.0), min_size=0, max_size=15),
        st.floats(0.001, 0.1),
        st.integers(0, 5000),
    )
    def test_every_request_counted_exactly_once(self, gaps, t_infer, total):
        times = np.cumsum([0.0] + sorted(gaps))
        switches = [
            VersionSwitch(float(t), i, i * 10, 1.0 / (i + 1))
            for i, t in enumerate(times)
        ]
        _cil, counts = cil_from_switches(switches, t_infer, total)
        assert counts.sum() == total

    @given(
        st.lists(st.floats(0.01, 100.0), min_size=0, max_size=15),
        st.integers(1, 2000),
    )
    def test_cil_bounded_by_extreme_losses(self, gaps, total):
        times = np.cumsum([0.0] + sorted(gaps))
        rng = np.random.default_rng(0)
        losses = rng.uniform(0.1, 5.0, size=len(times))
        switches = [
            VersionSwitch(float(t), i, i, float(lv))
            for i, (t, lv) in enumerate(zip(times, losses))
        ]
        cil, _ = cil_from_switches(switches, 0.01, total)
        assert losses.min() * total <= cil <= losses.max() * total + 1e-9


class TestSmoothing:
    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=60),
           st.integers(0, 15))
    def test_smoothing_stays_within_envelope(self, values, window):
        y = np.asarray(values)
        smoothed = smooth_losses(y, window)
        assert smoothed.min() >= y.min() - 1e-9
        assert smoothed.max() <= y.max() + 1e-9
        assert smoothed.shape == y.shape


class TestRetentionProperties:
    @given(
        st.sets(st.integers(1, 200), min_size=1, max_size=40),
        st.integers(1, 10),
        st.integers(0, 10),
    )
    def test_retained_is_subset_and_keeps_extremes(self, versions, k, stride):
        from repro.core.transfer.retention import RetentionPolicy

        policy = RetentionPolicy(keep_latest=k, keep_every=stride)
        kept = policy.retained(sorted(versions))
        assert kept <= versions
        assert max(versions) in kept   # latest always survives
        assert min(versions) in kept   # lineage root always survives
        assert len(kept) >= min(len(versions), 1)
