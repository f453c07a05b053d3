"""A modeled compute node: GPU memory, host memory, and intra-node copies.

Each :class:`ComputeNode` owns a :class:`TierStore` per local tier (GPU HBM
and host DRAM) plus the intra-node copy links (device-to-device snapshot
copies through HBM, host staging memcpys, and PCIe hops between the two).
Inter-node links and the shared PFS belong to :class:`repro.substrates.
cluster.cluster.Cluster`.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.substrates.cost import Cost
from repro.substrates.memory.storage import EvictionPolicy, TierStore
from repro.substrates.memory.tiers import TierKind, TierSpec
from repro.substrates.network.links import LinkSpec

__all__ = ["ComputeNode"]


class ComputeNode:
    """One node of the producer/consumer pair.

    Attributes:
        name: node identifier within its cluster.
        gpu: the GPU HBM tier store (checkpoint staging on-device).
        dram: the host DRAM tier store (host staging / flush buffer).
        pcie: GPU<->host copy link.
        hbm_copy: device-to-device snapshot copy link.
        dram_copy: host staging memcpy link.
    """

    def __init__(
        self,
        name: str,
        *,
        gpu_spec: TierSpec,
        dram_spec: TierSpec,
        pcie: LinkSpec,
        hbm_copy: LinkSpec,
        dram_copy: LinkSpec,
        eviction: EvictionPolicy = EvictionPolicy.OLDEST_VERSION,
    ):
        if gpu_spec.kind is not TierKind.GPU_HBM:
            raise ConfigurationError(f"{name}: gpu_spec must be a GPU_HBM tier")
        if dram_spec.kind is not TierKind.HOST_DRAM:
            raise ConfigurationError(f"{name}: dram_spec must be a HOST_DRAM tier")
        self.name = name
        self.gpu = TierStore(gpu_spec, eviction=eviction)
        self.dram = TierStore(dram_spec, eviction=eviction)
        self.pcie = pcie
        self.hbm_copy = hbm_copy
        self.dram_copy = dram_copy

    # ------------------------------------------------------------------
    # Intra-node copy cost laws
    # ------------------------------------------------------------------
    def d2h_cost(self, nbytes: int) -> Cost:
        """Device-to-host copy over PCIe (blocks training when sync)."""
        return self.pcie.transfer_cost(nbytes)

    def h2d_cost(self, nbytes: int) -> Cost:
        """Host-to-device upload over PCIe (consumer-side model load)."""
        return self.pcie.transfer_cost(nbytes)

    def d2d_cost(self, nbytes: int) -> Cost:
        """Device-to-device snapshot copy through HBM."""
        return self.hbm_copy.transfer_cost(nbytes)

    def h2h_cost(self, nbytes: int) -> Cost:
        """Host staging memcpy (async engines use an extra buffer copy)."""
        return self.dram_copy.transfer_cost(nbytes)

    def store(self, kind: TierKind) -> TierStore:
        """The local store for ``kind`` (GPU_HBM or HOST_DRAM)."""
        if kind is TierKind.GPU_HBM:
            return self.gpu
        if kind is TierKind.HOST_DRAM:
            return self.dram
        raise ConfigurationError(f"{self.name} has no local tier of kind {kind}")

    def describe(self) -> str:
        return (
            f"node {self.name}: {self.gpu.spec.describe()}; "
            f"{self.dram.spec.describe()}"
        )
