"""Stats Manager and location-aware load tests."""

import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import CaptureMode, TransferStrategy, Viper
from repro.errors import ObjectNotFoundError
from repro.core.stats import COUNTERS, LOCATION_RANK, StatsManager, StatsSnapshot
from repro.core.transfer.delta import DeltaStats
from repro.obs.exporters import prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.dnn.layers import Dense
from repro.dnn.models import Sequential


def tiny_state():
    return Sequential([Dense(2, name="d")], input_shape=(3,), seed=1).state_dict()


class TestStatsManager:
    def test_rank_order(self):
        stats = StatsManager()
        assert stats.order(("pfs", "gpu", "host_dram")) == (
            "gpu", "host_dram", "pfs",
        )

    def test_unknown_location_ranks_last(self):
        stats = StatsManager()
        assert stats.order(("tape", "pfs")) == ("pfs", "tape")

    def test_counters(self):
        stats = StatsManager()
        stats.record_load("gpu", 100, 0.5)
        stats.record_load("gpu", 200, 0.25)
        stats.record_load("pfs", 50, 1.0, fallback=True)
        stats.count("misses")
        assert stats.loads_from("gpu") == 2
        assert stats.loads_from("pfs") == 1
        assert stats.fallbacks == 1
        assert stats.misses == 1
        snap = stats.snapshot()
        assert snap["gpu"].bytes_loaded == 300
        assert snap["gpu"].seconds == pytest.approx(0.75)

    def test_record_wire_rescales_delta_savings(self):
        # A frame's savings are counted in real bytes; the save's
        # accounting is in virtual (paper-scale) bytes, 10x here.
        stats = StatsManager()
        stats.record_wire(1000, 1000)
        frame = DeltaStats(mode="delta", bytes_total=100, bytes_on_wire=30,
                           bytes_reused=60, chunks_total=10, chunks_reused=6)
        stats.record_wire(1000, 300, frame)
        snap = stats.snapshot()
        assert snap.bytes_total == 2000
        assert snap.bytes_on_wire == 1300
        assert snap.bytes_saved_dedup == 600
        assert snap.delta_chunks_total == 10
        assert snap.delta_chunks_reused == 6
        assert snap.delta_hits == 1

    def test_summary_renders(self):
        stats = StatsManager()
        stats.record_load("gpu", 10, 0.1)
        text = stats.summary()
        assert "gpu" in text and "fallbacks" in text

    def test_rank_table_covers_all_tiers(self):
        assert set(LOCATION_RANK) == {"gpu", "host_dram", "pfs"}

    def test_snapshot_surfaces_fallbacks_and_misses(self):
        stats = StatsManager()
        stats.record_load("gpu", 10, 0.1)
        stats.record_load("pfs", 20, 1.0, fallback=True)
        stats.count("misses")
        snap = stats.snapshot()
        assert snap.fallbacks == 1
        assert snap.misses == 1
        assert set(snap) == {"gpu", "pfs"}
        assert "gpu" in snap

    def test_snapshot_is_a_copy(self):
        stats = StatsManager()
        stats.record_load("gpu", 10, 0.1)
        snap = stats.snapshot()
        stats.record_load("gpu", 10, 0.1)
        assert snap["gpu"].loads == 1
        assert stats.snapshot()["gpu"].loads == 2

    def test_summary_includes_misses(self):
        stats = StatsManager()
        stats.count("misses")
        assert "misses: 1" in stats.summary()

    def test_metrics_registry_wiring(self):
        metrics = MetricsRegistry()
        stats = StatsManager(metrics=metrics)
        stats.record_load("gpu", 100, 0.5)
        stats.record_load("pfs", 50, 1.0, fallback=True)
        stats.count("misses")
        by_key = {(i.name, i.labels): i for i in metrics.collect()}
        assert by_key[("viper_loads_total", (("location", "gpu"),))].value == 1
        assert by_key[
            ("viper_load_bytes_total", (("location", "gpu"),))
        ].value == 100
        assert by_key[
            ("viper_load_seconds", (("location", "pfs"),))
        ].count == 1
        assert by_key[("viper_load_fallbacks_total", ())].value == 1
        assert by_key[("viper_load_misses_total", ())].value == 1

    def test_default_null_metrics_records_nothing(self):
        stats = StatsManager()
        stats.record_load("gpu", 1, 0.1)
        assert stats.metrics.collect() == ()


class TestOneStore:
    """The registry is the only store: a plain-dict model of every record
    must read back identically, armed or not."""

    LOCATIONS = ("gpu", "host_dram", "pfs", "tape")
    LABELS = ({}, {"site": "stage.gpu"}, {"reason": "ttl"}, {"src": "gpu", "dst": "pfs"})

    ops = st.lists(
        st.one_of(
            st.tuples(
                st.just("count"), st.sampled_from(sorted(COUNTERS)),
                st.integers(0, 5), st.sampled_from(range(len(LABELS))),
            ),
            st.tuples(
                st.just("load"), st.sampled_from(LOCATIONS),
                st.integers(0, 10**6), st.floats(0.0, 10.0), st.booleans(),
            ),
            st.tuples(
                st.just("wire"), st.integers(0, 10**9), st.integers(0, 10**9),
                st.none() | st.tuples(
                    st.integers(0, 10**6), st.integers(0, 10**6),
                    st.integers(0, 64), st.integers(0, 64),
                ),
            ),
        ),
        max_size=40,
    )

    @settings(max_examples=60, deadline=None)
    @given(ops=ops, armed=st.booleans())
    def test_matches_a_plain_dict_model(self, ops, armed):
        stats = StatsManager(metrics=MetricsRegistry() if armed else None)
        ref = dict.fromkeys(COUNTERS, 0)
        locs = {}
        for op in ops:
            if op[0] == "count":
                _, field, n, which = op
                stats.count(field, n, **self.LABELS[which])
                ref[field] += n
            elif op[0] == "load":
                _, loc, nbytes, seconds, fallback = op
                stats.record_load(loc, nbytes, seconds, fallback=fallback)
                entry = locs.setdefault(loc, [0, 0, 0.0])
                entry[0] += 1
                entry[1] += nbytes
                entry[2] += seconds
                ref["fallbacks"] += int(fallback)
            else:
                _, total, on_wire, frame = op
                delta = None
                if frame is not None:
                    size, reused, chunks, chunks_reused = frame
                    delta = DeltaStats(
                        mode="delta", bytes_total=size, bytes_on_wire=0,
                        bytes_reused=reused, chunks_total=chunks,
                        chunks_reused=chunks_reused,
                    )
                    if size:
                        ref["bytes_saved_dedup"] += int(reused * (total / size))
                    ref["delta_chunks_total"] += chunks
                    ref["delta_chunks_reused"] += chunks_reused
                    ref["delta_hits"] += 1
                stats.record_wire(total, on_wire, delta)
                ref["bytes_total"] += total
                ref["bytes_on_wire"] += on_wire
        snap = stats.snapshot()
        for field in COUNTERS:
            assert getattr(snap, field) == ref[field], field
            assert getattr(stats, field) == ref[field], field
        assert list(snap.locations) == list(locs)
        for loc in self.LOCATIONS:
            assert stats.loads_from(loc) == (locs[loc][0] if loc in locs else 0)
        for loc, (loads, nbytes, seconds) in locs.items():
            got = snap[loc]
            assert (got.loads, got.bytes_loaded, got.seconds) == (loads, nbytes, seconds)

    def test_table_follows_snapshot_field_order(self):
        fields = [f.name for f in dataclasses.fields(StatsSnapshot)]
        assert fields == ["locations", *COUNTERS]

    def test_unknown_field_raises(self):
        stats = StatsManager()
        with pytest.raises(KeyError, match="no_such_field"):
            stats.count("no_such_field")
        with pytest.raises(AttributeError):
            stats.no_such_field
        assert stats.snapshot() == StatsManager().snapshot()

    def test_disarmed_counts_without_exporting(self):
        stats = StatsManager()
        stats.count("retries", site="stage.gpu")
        assert stats.retries == 1
        assert stats.metrics.collect() == ()

    def test_armed_writes_into_the_deployment_registry(self):
        metrics = MetricsRegistry()
        stats = StatsManager(metrics=metrics)
        stats.count("requests_shed", reason="rate")
        stats.count("requests_shed", 2, reason="deadline")
        assert metrics.counter("viper_requests_shed_total", reason="rate").value == 1
        assert stats.requests_shed == 3

    def test_summary_shows_a_lone_rejected_swap(self):
        stats = StatsManager()
        stats.count("swaps_rejected")
        assert stats.summary() == "fallbacks: 0, misses: 0, swaps_rejected: 1"

    def test_summary_lists_nonzero_counts_and_the_hit_ratio(self):
        stats = StatsManager()
        stats.record_load("pfs", 20, 1.0, fallback=True)
        stats.record_load("gpu", 10, 0.1)
        frame = DeltaStats(mode="delta", bytes_total=100, bytes_on_wire=30,
                           bytes_reused=60, chunks_total=4, chunks_reused=3)
        stats.record_wire(1000, 300, frame)
        assert stats.summary() == (
            "gpu: 1 loads, 10 B, 0.100s; pfs: 1 loads, 20 B, 1.000s; "
            "fallbacks: 1, misses: 0, bytes_total: 1000, bytes_on_wire: 300, "
            "bytes_saved_dedup: 600, delta_chunks_total: 4, "
            "delta_chunks_reused: 3, delta_hits: 1; dedup hit ratio: 75%"
        )

    @pytest.mark.parametrize("armed", [False, True])
    def test_no_snapshot_sees_a_half_applied_record(self, armed):
        # Each record moves both halves of a pair by the same amount, so
        # every consistent snapshot has them equal: one taken between a
        # record's writes (or reading the halves at different moments)
        # shows them apart, bytes_on_wire above bytes_total included.
        stats = StatsManager(metrics=MetricsRegistry() if armed else None)
        frame = DeltaStats(mode="delta", bytes_total=64, bytes_on_wire=64,
                           chunks_total=8, chunks_reused=8)
        done = threading.Event()
        torn = []

        def write():
            for _ in range(2000):
                stats.record_wire(64, 64, frame)

        def read():
            while not done.is_set():
                snap = stats.snapshot()
                if (snap.bytes_on_wire != snap.bytes_total
                        or snap.delta_chunks_reused != snap.delta_chunks_total):
                    torn.append(snap)

        writers = [threading.Thread(target=write) for _ in range(2)]
        reader = threading.Thread(target=read)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads finely
        try:
            reader.start()
            for t in writers:
                t.start()
            for t in writers:
                t.join(timeout=60)
            done.set()
            reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in (*writers, reader))
        assert not torn
        assert stats.bytes_on_wire == stats.bytes_total == 2 * 2000 * 64

    def test_armed_viper_exports_the_chunk_counters(self):
        rng = np.random.default_rng(0)
        v1 = {f"t{i}": rng.standard_normal((64, 32)).astype(np.float32)
              for i in range(8)}
        v2 = dict(v1, t0=v1["t0"] + 1.0)
        metrics = MetricsRegistry()
        kw = dict(mode=CaptureMode.SYNC, strategy=TransferStrategy.HOST_TO_HOST)
        with Viper(metrics=metrics, delta=True) as viper:
            viper.save_weights("m", v1, **kw)
            viper.load_weights("m")
            viper.save_weights("m", v2, **kw)
            snap = viper.stats.snapshot()
        assert snap.delta_chunks_total > snap.delta_chunks_reused > 0
        text = prometheus_text(metrics)
        assert f"viper_delta_chunks_total {snap.delta_chunks_total}" in text
        assert f"viper_delta_chunks_reused_total {snap.delta_chunks_reused}" in text


class TestLocationAwareLoad:
    def test_load_prefers_memory_replica(self):
        with Viper(flush_history=True) as viper:
            viper.save_weights(
                "m", tiny_state(),
                mode=CaptureMode.SYNC, strategy=TransferStrategy.GPU_TO_GPU,
            )
            viper.drain()
            loaded = viper.load_weights("m")
            # Both gpu and pfs replicas exist; the gpu one is cheaper.
            assert loaded.location == "gpu"
            assert viper.handler.stats.loads_from("gpu") == 1
            assert viper.handler.stats.fallbacks == 0

    def test_fallback_to_pfs_recorded(self):
        with Viper(flush_history=True) as viper:
            viper.save_weights(
                "m", tiny_state(),
                mode=CaptureMode.SYNC, strategy=TransferStrategy.GPU_TO_GPU,
            )
            viper.drain()
            viper.consumer_node.gpu.clear()
            loaded = viper.load_weights("m")
            assert loaded.location == "pfs"
            assert viper.handler.stats.fallbacks == 1

    def test_pfs_load_costs_more_than_memory_load(self):
        with Viper(flush_history=True) as viper:
            viper.save_weights(
                "m", tiny_state(),
                mode=CaptureMode.SYNC, strategy=TransferStrategy.GPU_TO_GPU,
                virtual_bytes=10**9,
            )
            viper.drain()
            fast = viper.load_weights("m")
            viper.consumer_node.gpu.clear()
            slow = viper.load_weights("m")
            assert slow.cost.total > fast.cost.total

    def test_total_loss_of_replicas_raises_and_counts_miss(self):
        with Viper(flush_history=False) as viper:
            viper.save_weights(
                "m", tiny_state(),
                mode=CaptureMode.SYNC, strategy=TransferStrategy.GPU_TO_GPU,
            )
            viper.consumer_node.gpu.clear()
            with pytest.raises(ObjectNotFoundError):
                viper.load_weights("m")
            assert viper.handler.stats.misses == 1
