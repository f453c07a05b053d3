"""Point-to-point interconnect performance models.

A :class:`LinkSpec` models one hop of the checkpoint's journey with the
standard alpha-beta law: ``time = latency + nbytes / bandwidth`` plus an
optional per-message overhead (protocol setup, registration of RDMA
buffers).  The Viper transfer engine composes hops:

- GPU-to-GPU: one NVLink/GPUDirect-RDMA hop.
- Host-to-Host: PCIe device-to-host, InfiniBand host-to-host, PCIe
  host-to-device.
- PFS: the tier model in :mod:`repro.substrates.memory.tiers` covers the
  storage side; the fabric hop to the PFS servers is folded into the tier
  bandwidth the way the paper folds it into measured Lustre throughput.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.substrates.cost import Cost, GB

__all__ = ["LinkKind", "LinkSpec", "install_fault_hook", "uninstall_fault_hook"]

# Module-level fault hook.  LinkSpec is a frozen dataclass shared across
# clusters and profiles, so per-instance hooks are impossible; an armed
# FaultPlan installs itself here instead and every timing-law evaluation
# consults it.  ``None`` (the overwhelmingly common case) costs one
# global read.
_FAULT_HOOK = None


def install_fault_hook(plan) -> None:
    """Route ``link.time:{name}`` sites through ``plan`` (one plan at a time)."""
    global _FAULT_HOOK
    if _FAULT_HOOK is not None and _FAULT_HOOK is not plan:
        raise ConfigurationError("a links fault hook is already installed")
    _FAULT_HOOK = plan


def uninstall_fault_hook(plan) -> None:
    """Remove ``plan``'s hook; a no-op if another plan owns the slot."""
    global _FAULT_HOOK
    if _FAULT_HOOK is plan:
        _FAULT_HOOK = None


class LinkKind(enum.Enum):
    """The interconnect families a checkpoint hop can traverse."""

    NVLINK = "nvlink"            # intra/inter-node GPU-direct path
    PCIE = "pcie"                # GPU <-> host staging copies
    INFINIBAND = "infiniband"    # host <-> host RDMA
    DRAM_COPY = "dram_copy"      # host-memory staging memcpy
    HBM_COPY = "hbm_copy"        # device-memory snapshot memcpy
    LOOPBACK = "loopback"        # same-process testing link


@dataclass(frozen=True)
class LinkSpec:
    """Performance description of one interconnect hop.

    Attributes:
        name: identifier, e.g. ``"polaris.ib"``.
        kind: link family (used for cost labels and selection policy).
        bandwidth: sustained bytes/second for large messages.
        latency: one-way startup latency in seconds.
        per_message_overhead: extra seconds per message (rendezvous,
            memory registration); charged once per transfer.
    """

    name: str
    kind: LinkKind
    bandwidth: float
    latency: float = 0.0
    per_message_overhead: float = 0.0

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ConfigurationError(f"{self.name}: bandwidth must be positive")
        if self.latency < 0 or self.per_message_overhead < 0:
            raise ConfigurationError(f"{self.name}: latencies must be non-negative")

    def transfer_time(self, nbytes: int, nmessages: int = 1) -> float:
        """Seconds to move ``nbytes`` as ``nmessages`` messages."""
        if nbytes < 0 or nmessages < 1:
            raise ConfigurationError(
                f"transfer_time: nbytes={nbytes}, nmessages={nmessages} out of range"
            )
        seconds = (
            self.latency
            + nbytes / self.bandwidth
            + self.per_message_overhead * nmessages
        )
        if _FAULT_HOOK is not None:
            effect = _FAULT_HOOK.fire(f"link.time:{self.name}")
            seconds *= effect.cost_scale
        return seconds

    def transfer_cost(self, nbytes: int, nmessages: int = 1) -> Cost:
        return Cost.of(
            f"link.{self.kind.value}", self.transfer_time(nbytes, nmessages)
        )

    def pipelined_transfer_time(
        self, nbytes: int, chunk_bytes: int, lanes: int = 1
    ) -> float:
        """Seconds to move ``nbytes`` as pipelined chunks over ``lanes`` lanes.

        The chunked law: the first chunk pays the full startup
        (``latency + per_message_overhead``); later chunks stream behind
        it, their startups issued by ``lanes`` parallel lanes and hidden
        under the in-flight data whenever the transfer is bandwidth-bound::

            T = startup + max(nbytes / bandwidth, (k - 1) * startup / lanes)

        Where per-message overhead would dominate (tiny chunks on a
        chatty link), a real sender falls back to the monolithic send, so
        the law is clamped at :meth:`transfer_time` — it is monotone in
        ``lanes``, never slower than the monolithic law, and equal to it
        at one chunk.
        """
        if nbytes < 0:
            raise ConfigurationError(f"pipelined_transfer_time: nbytes={nbytes}")
        if chunk_bytes <= 0 or lanes < 1:
            raise ConfigurationError(
                f"pipelined_transfer_time: chunk_bytes={chunk_bytes}, "
                f"lanes={lanes} out of range"
            )
        monolithic = self.transfer_time(nbytes)
        nchunks = max(1, -(-nbytes // chunk_bytes))
        startup = self.latency + self.per_message_overhead
        pipelined = startup + max(
            nbytes / self.bandwidth, (nchunks - 1) * startup / lanes
        )
        return min(monolithic, pipelined)

    def pipelined_transfer_cost(
        self, nbytes: int, chunk_bytes: int, lanes: int = 1
    ) -> Cost:
        return Cost.of(
            f"link.{self.kind.value}",
            self.pipelined_transfer_time(nbytes, chunk_bytes, lanes),
        )

    def describe(self) -> str:
        return (
            f"{self.name} [{self.kind.value}] {self.bandwidth / GB:.2f} GB/s "
            f"lat={self.latency * 1e6:.1f} us"
        )
