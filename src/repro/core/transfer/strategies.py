"""Transfer strategies and their timing laws.

A model update's simulated time decomposes into three phases:

- **stall** — what blocks the producer's training loop (paper: "training
  has to be interrupted due to checkpointing");
- **deliver** — background work off the training path (the async engine's
  extra staging copy plus the wire/PFS time);
- **load** — the consumer-side read + deserialize + upload before the
  double-buffer swap.

The end-to-end *model update latency* of Figure 8 is the sum of all
three; the *training overhead* of Figure 9 / Table 1 counts only the
stall.  Timing laws per strategy (sizes are wire bytes, i.e. payload ×
the serializer's byte-overhead factor):

====================  ========================================  =======================
strategy              sync stall / async stall                  deliver (async) | load
====================  ========================================  =======================
GPU-to-GPU            ser + d2d [+ nvlink if sync]              d2d' + nvlink | gpu_read + deser
Host-to-Host          ser + d2h [+ ib if sync]                  dram' + ib    | dram_read + h2d + deser
PFS                   ser + d2h [+ pfs_write if sync]           pfs_write     | pfs_read + h2d + deser
====================  ========================================  =======================

(`'` marks the async engine's extra staging copy; `ser`/`deser` include
the serializer's fixed and per-tensor overheads, which is where the h5py
baseline loses to Viper's compact format.)

When a :class:`~repro.core.transfer.pipeline.PipelineConfig` is supplied
(and enabled), each phase's law is replaced by the chunked-overlap law:
the phase's bottleneck stage runs at full length while every other stage
contributes only its pipeline fill (``1/k`` of its monolithic time for
``k`` chunks), plus a per-chunk scatter setup amortized over the lanes —
so a phase approaches ``max-stage`` instead of ``sum-of-stages``.  The
law is clamped at the monolithic time (a real sender falls back to one
message when per-chunk overhead dominates), making it monotone and exact
at one chunk.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.substrates.cost import Cost
from repro.substrates.network.links import LinkSpec
from repro.substrates.profiles import HardwareProfile
from repro.dnn.serialization import Serializer
from repro.core.transfer.pipeline import PipelineConfig

__all__ = [
    "TransferStrategy",
    "CaptureMode",
    "StrategyTimings",
    "FAILOVER_ORDER",
    "failover_chain",
    "compute_timings",
    "pipelined_phase_cost",
    "load_cost_for_location",
]


class TransferStrategy(enum.Enum):
    """Where the checkpoint travels (paper Fig. 7's transfer selector)."""

    GPU_TO_GPU = "gpu"
    HOST_TO_HOST = "host"
    PFS = "pfs"


#: The paper's fallback chain (§4.4): fastest path first, the PFS —
#: always reachable, always slowest — as the terminal fallback.
FAILOVER_ORDER: tuple = (
    TransferStrategy.GPU_TO_GPU,
    TransferStrategy.HOST_TO_HOST,
    TransferStrategy.PFS,
)


def failover_chain(start: TransferStrategy) -> tuple:
    """Strategies to try, in order, beginning at ``start``.

    ``failover_chain(HOST_TO_HOST) == (HOST_TO_HOST, PFS)`` — failover
    only ever demotes down the chain, never re-promotes to a faster path
    that the selector already rejected.
    """
    idx = FAILOVER_ORDER.index(start)
    return FAILOVER_ORDER[idx:]


class CaptureMode(enum.Enum):
    """Whether the movement blocks training or runs on the engine thread."""

    SYNC = "sync"
    ASYNC = "async"


@dataclass(frozen=True)
class StrategyTimings:
    """The three phases of one model update, as simulated costs."""

    strategy: TransferStrategy
    mode: CaptureMode
    stall: Cost     # blocks the producer's training loop
    deliver: Cost   # background (empty for sync modes)
    load: Cost      # consumer-side critical path

    @property
    def update_latency(self) -> float:
        """Figure 8's end-to-end model update latency."""
        return self.stall.total + self.deliver.total + self.load.total

    @property
    def training_overhead(self) -> float:
        """Figure 9's per-checkpoint training overhead."""
        return self.stall.total


def pipelined_phase_cost(
    cost: Cost,
    wire_link: LinkSpec,
    wire_bytes: int,
    pipeline: PipelineConfig,
) -> Cost:
    """Apply the chunked-overlap law to one phase's stage breakdown.

    With ``k`` chunks the bottleneck stage still runs end to end, every
    other stage overlaps it except for its fill (``1/k`` of its time),
    and each chunk past the first pays the wire link's scatter setup,
    issued by ``lanes`` parallel lanes::

        T_pipe = min(T_mono,
                     max_stage + (T_mono - max_stage) / k
                               + (k - 1) * setup / lanes)

    Monotone in chunks and lanes, never above the monolithic phase time,
    and exactly equal to it at one chunk.  The component breakdown is
    preserved by uniform scaling.
    """
    total = cost.total
    k = pipeline.nchunks(wire_bytes)
    if total <= 0.0 or k <= 1:
        return cost
    stages = cost.breakdown()
    bottleneck = max(stages.values())
    setup = wire_link.latency + wire_link.per_message_overhead
    pipelined = (
        bottleneck
        + (total - bottleneck) / k
        + (k - 1) * setup / pipeline.lanes
    )
    pipelined = min(total, pipelined)
    return cost.scaled(pipelined / total)


_WIRE_LINK_OF = {
    TransferStrategy.GPU_TO_GPU: "nvlink",
    TransferStrategy.HOST_TO_HOST: "infiniband",
    TransferStrategy.PFS: "pcie",
}


def compute_timings(
    profile: HardwareProfile,
    serializer: Serializer,
    strategy: TransferStrategy,
    mode: CaptureMode,
    payload_bytes: int,
    ntensors: int,
    *,
    pipeline: Optional[PipelineConfig] = None,
    wire_scale: float = 1.0,
) -> StrategyTimings:
    """Evaluate the timing law for one (strategy, mode) combination.

    With an enabled ``pipeline``, each phase is reduced by the
    chunked-overlap law (:func:`pipelined_phase_cost`); the default
    ``None`` keeps the monolithic law exactly.

    ``wire_scale`` models the delta/compressed wire path
    (:mod:`repro.core.transfer.delta`): the producer still serializes and
    snapshots the *full* state locally, but only ``wire_scale`` of the
    wire bytes cross the inter-node hop and land in the destination tier
    — so the network/PFS terms and the consumer-side read scale while
    serialize/deserialize and the local capture copy do not.
    """
    if payload_bytes < 0 or ntensors < 1:
        raise ConfigurationError(
            f"payload_bytes={payload_bytes}, ntensors={ntensors} out of range"
        )
    if not 0.0 < wire_scale <= 1.0:
        raise ConfigurationError(
            f"wire_scale must be in (0, 1], got {wire_scale}"
        )
    wire = serializer.wire_bytes(payload_bytes)
    net = wire if wire_scale == 1.0 else max(1, int(wire * wire_scale))
    ser = Cost.of("serialize", serializer.serialize_seconds(ntensors))
    deser = Cost.of("deserialize", serializer.deserialize_seconds(ntensors))

    if strategy is TransferStrategy.GPU_TO_GPU:
        snapshot = profile.hbm_copy.transfer_cost(wire)
        wire_cost = profile.nvlink.transfer_cost(net)
        load = Cost.of("gpu_hbm.read", profile.gpu_hbm.read_time(net)) + deser
        if mode is CaptureMode.SYNC:
            timings = StrategyTimings(
                strategy, mode, ser + snapshot + wire_cost, Cost.zero(), load
            )
        else:
            extra = profile.hbm_copy.transfer_cost(net)
            timings = StrategyTimings(
                strategy, mode, ser + snapshot, extra + wire_cost, load
            )
    elif strategy is TransferStrategy.HOST_TO_HOST:
        d2h = profile.pcie.transfer_cost(wire)
        wire_cost = profile.infiniband.transfer_cost(net)
        load = (
            Cost.of("host_dram.read", profile.host_dram.read_time(net))
            + profile.pcie.transfer_cost(net)
            + deser
        )
        if mode is CaptureMode.SYNC:
            timings = StrategyTimings(
                strategy, mode, ser + d2h + wire_cost, Cost.zero(), load
            )
        else:
            extra = profile.dram_copy.transfer_cost(net)
            timings = StrategyTimings(
                strategy, mode, ser + d2h, extra + wire_cost, load
            )
    elif strategy is TransferStrategy.PFS:
        d2h = profile.pcie.transfer_cost(wire)
        write = Cost.of("pfs.write", profile.pfs.write_time(net, ntensors))
        load = (
            Cost.of("pfs.read", profile.pfs.read_time(net, ntensors))
            + profile.pcie.transfer_cost(net)
            + deser
        )
        if mode is CaptureMode.SYNC:
            timings = StrategyTimings(
                strategy, mode, ser + d2h + write, Cost.zero(), load
            )
        else:
            extra = profile.dram_copy.transfer_cost(wire)
            timings = StrategyTimings(
                strategy, mode, ser + d2h + extra, write, load
            )
    else:
        raise ConfigurationError(f"unknown strategy {strategy!r}")

    if pipeline is None or not pipeline.enabled:
        return timings
    link = getattr(profile, _WIRE_LINK_OF[strategy])
    return StrategyTimings(
        strategy,
        mode,
        pipelined_phase_cost(timings.stall, link, wire, pipeline),
        pipelined_phase_cost(timings.deliver, link, net, pipeline),
        pipelined_phase_cost(timings.load, link, net, pipeline),
    )


def load_cost_for_location(
    profile: HardwareProfile,
    serializer: Serializer,
    location: str,
    payload_bytes: int,
    ntensors: int,
    *,
    pipeline: Optional[PipelineConfig] = None,
    wire_scale: float = 1.0,
) -> Cost:
    """Consumer-side load cost given where the checkpoint resides.

    ``location`` is the metadata record's location field: ``"gpu"``,
    ``"dram"``, or ``"pfs"`` — the same keys the strategies stage into.
    An enabled ``pipeline`` applies the chunked-overlap law, with the
    staging hop (local HBM copy for GPU-resident blobs, PCIe otherwise)
    supplying the per-chunk setup cost.  ``wire_scale`` < 1 means the
    tier holds a delta frame that small instead of the full blob, so
    every byte-proportional term shrinks (deserialize does not — the
    reconstructed state is full-size).
    """
    if not 0.0 < wire_scale <= 1.0:
        raise ConfigurationError(
            f"wire_scale must be in (0, 1], got {wire_scale}"
        )
    wire = serializer.wire_bytes(payload_bytes)
    if wire_scale != 1.0:
        wire = max(1, int(wire * wire_scale))
    deser = Cost.of("deserialize", serializer.deserialize_seconds(ntensors))
    if location == "gpu":
        cost = Cost.of("gpu_hbm.read", profile.gpu_hbm.read_time(wire)) + deser
        link = profile.hbm_copy
    elif location == "dram":
        cost = (
            Cost.of("host_dram.read", profile.host_dram.read_time(wire))
            + profile.pcie.transfer_cost(wire)
            + deser
        )
        link = profile.pcie
    elif location == "pfs":
        cost = (
            Cost.of("pfs.read", profile.pfs.read_time(wire, ntensors))
            + profile.pcie.transfer_cost(wire)
            + deser
        )
        link = profile.pcie
    else:
        raise ConfigurationError(f"unknown checkpoint location {location!r}")
    if pipeline is None or not pipeline.enabled:
        return cost
    return pipelined_phase_cost(cost, link, wire, pipeline)
