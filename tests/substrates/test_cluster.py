"""Tests for compute nodes and the two-node topology."""

import pytest

from repro.errors import ConfigurationError
from repro.substrates.cluster.cluster import Cluster, make_producer_consumer_pair
from repro.substrates.cluster.node import ComputeNode
from repro.substrates.memory.tiers import TierKind
from repro.substrates.profiles import LAPTOP, POLARIS


def make_node(name="n"):
    return ComputeNode(
        name,
        gpu_spec=POLARIS.gpu_hbm,
        dram_spec=POLARIS.host_dram,
        pcie=POLARIS.pcie,
        hbm_copy=POLARIS.hbm_copy,
        dram_copy=POLARIS.dram_copy,
    )


class TestComputeNode:
    def test_stores_exist(self):
        node = make_node()
        assert node.gpu.spec.kind is TierKind.GPU_HBM
        assert node.dram.spec.kind is TierKind.HOST_DRAM

    def test_wrong_tier_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ComputeNode(
                "bad",
                gpu_spec=POLARIS.host_dram,  # wrong kind
                dram_spec=POLARIS.host_dram,
                pcie=POLARIS.pcie,
                hbm_copy=POLARIS.hbm_copy,
                dram_copy=POLARIS.dram_copy,
            )
        with pytest.raises(ConfigurationError):
            ComputeNode(
                "bad",
                gpu_spec=POLARIS.gpu_hbm,
                dram_spec=POLARIS.gpu_hbm,  # wrong kind
                pcie=POLARIS.pcie,
                hbm_copy=POLARIS.hbm_copy,
                dram_copy=POLARIS.dram_copy,
            )

    def test_copy_cost_laws(self):
        node = make_node()
        nbytes = 1_000_000_000
        assert node.d2h_cost(nbytes).total == pytest.approx(
            POLARIS.pcie.transfer_time(nbytes)
        )
        assert node.h2d_cost(nbytes).total == node.d2h_cost(nbytes).total
        assert node.d2d_cost(nbytes).total == pytest.approx(
            POLARIS.hbm_copy.transfer_time(nbytes)
        )
        assert node.h2h_cost(nbytes).total == pytest.approx(
            POLARIS.dram_copy.transfer_time(nbytes)
        )

    def test_store_lookup(self):
        node = make_node()
        assert node.store(TierKind.GPU_HBM) is node.gpu
        assert node.store(TierKind.HOST_DRAM) is node.dram
        with pytest.raises(ConfigurationError):
            node.store(TierKind.PFS)

    def test_describe(self):
        assert "node n" in make_node().describe()


class TestCluster:
    def test_pair_topology(self):
        cluster, producer, consumer = make_producer_consumer_pair(POLARIS)
        assert producer.name == "producer"
        assert consumer.name == "consumer"
        assert len(cluster.nodes) == 2
        assert cluster.pfs.spec.kind is TierKind.PFS

    def test_duplicate_node_rejected(self):
        cluster, _p, _c = make_producer_consumer_pair(POLARIS)
        with pytest.raises(ConfigurationError):
            cluster.add_node(make_node("producer"))

    def test_unknown_node_rejected(self):
        cluster, _p, _c = make_producer_consumer_pair(POLARIS)
        with pytest.raises(ConfigurationError):
            cluster.node("ghost")

    def test_host_plane_uses_ib(self):
        cluster, _p, _c = make_producer_consumer_pair(POLARIS)
        assert cluster.host_link is POLARIS.infiniband

    def test_gpu_plane_uses_nvlink(self):
        cluster, _p, _c = make_producer_consumer_pair(POLARIS)
        assert cluster.gpu_link is POLARIS.nvlink

    def test_gpu_plane_faster_than_host_plane(self):
        cluster, _p, _c = make_producer_consumer_pair(POLARIS)
        nbytes = 1_000_000_000
        gpu = cluster.gpu_link.transfer_time(nbytes)
        host = cluster.host_link.transfer_time(nbytes)
        assert gpu < host

    def test_wrong_pfs_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            Cluster(
                POLARIS.host_dram,
                gpu_link=POLARIS.nvlink,
                host_link=POLARIS.infiniband,
            )


class TestProfiles:
    @pytest.mark.parametrize("profile", [POLARIS, LAPTOP])
    def test_bandwidth_hierarchy(self, profile):
        """Memory tiers beat the PFS; GPU-direct beats host RDMA."""
        assert profile.gpu_hbm.read_bw > profile.pfs.read_bw
        assert profile.host_dram.read_bw > profile.pfs.read_bw
        assert profile.nvlink.bandwidth > profile.infiniband.bandwidth

    def test_polaris_models_a100(self):
        assert POLARIS.gpu_hbm.capacity_bytes == 40 * 10**9
