"""Cluster topology: nodes, inter-node links, and the shared PFS.

The evaluation deploys one producer and one consumer on separate nodes
(paper §3), connected by a GPU-direct path (NVLink/GPUDirect over the HPC
interconnect) and a host-to-host InfiniBand path, with Lustre as the shared
parallel file system.  :func:`make_producer_consumer_pair` builds exactly
that two-node topology from a hardware profile.

The links are timing laws, not a transport: a checkpoint moves as a
one-sided put into the consumer's tier store, priced by ``gpu_link`` or
``host_link`` (:class:`~repro.core.transfer.handler.ModelWeightsHandler`).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import ConfigurationError
from repro.substrates.memory.storage import EvictionPolicy, TierStore
from repro.substrates.memory.tiers import TierKind, TierSpec
from repro.substrates.network.links import LinkSpec
from repro.substrates.cluster.node import ComputeNode

__all__ = ["Cluster", "make_producer_consumer_pair"]


class Cluster:
    """A set of compute nodes sharing a PFS and two interconnect planes.

    Every node pair is joined on both planes:

    - ``host_link``: the host plane (InfiniBand host-to-host).
    - ``gpu_link``: the GPU plane (NVLink / GPUDirect RDMA).
    """

    def __init__(
        self,
        pfs_spec: TierSpec,
        *,
        gpu_link: LinkSpec,
        host_link: LinkSpec,
        eviction: EvictionPolicy = EvictionPolicy.NONE,
    ):
        if pfs_spec.kind is not TierKind.PFS:
            raise ConfigurationError("pfs_spec must be a PFS tier")
        self.pfs = TierStore(pfs_spec, eviction=eviction)
        self.gpu_link = gpu_link
        self.host_link = host_link
        self._nodes: Dict[str, ComputeNode] = {}

    @property
    def nodes(self) -> Tuple[ComputeNode, ...]:
        return tuple(self._nodes.values())

    def add_node(self, node: ComputeNode) -> ComputeNode:
        if node.name in self._nodes:
            raise ConfigurationError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        return node

    def node(self, name: str) -> ComputeNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise ConfigurationError(f"unknown node {name!r}") from None



def make_producer_consumer_pair(profile) -> Tuple[Cluster, ComputeNode, ComputeNode]:
    """Build the paper's two-node producer/consumer topology.

    ``profile`` is a :class:`repro.substrates.profiles.HardwareProfile`.
    Returns ``(cluster, producer_node, consumer_node)``.
    """
    cluster = Cluster(
        profile.pfs,
        gpu_link=profile.nvlink,
        host_link=profile.infiniband,
    )
    producer = ComputeNode(
        "producer",
        gpu_spec=profile.gpu_hbm,
        dram_spec=profile.host_dram,
        pcie=profile.pcie,
        hbm_copy=profile.hbm_copy,
        dram_copy=profile.dram_copy,
    )
    consumer = ComputeNode(
        "consumer",
        gpu_spec=profile.gpu_hbm,
        dram_spec=profile.host_dram,
        pcie=profile.pcie,
        hbm_copy=profile.hbm_copy,
        dram_copy=profile.dram_copy,
    )
    cluster.add_node(producer)
    cluster.add_node(consumer)
    return cluster, producer, consumer
