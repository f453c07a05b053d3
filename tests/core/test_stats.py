"""Stats Manager and location-aware load tests."""

import numpy as np
import pytest

from repro import CaptureMode, TransferStrategy, Viper
from repro.errors import ObjectNotFoundError
from repro.core.stats import LOCATION_RANK, StatsManager
from repro.core.transfer.delta import DeltaStats
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
        stats.record_miss()
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
        stats.record_miss()
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
        stats.record_miss()
        assert "misses: 1" in stats.summary()

    def test_metrics_registry_wiring(self):
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        stats = StatsManager(metrics=metrics)
        stats.record_load("gpu", 100, 0.5)
        stats.record_load("pfs", 50, 1.0, fallback=True)
        stats.record_miss()
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
