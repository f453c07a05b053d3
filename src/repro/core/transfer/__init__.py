"""The memory-first model transfer engine (paper §4.4, Fig. 7).

- :mod:`strategies` — the three transfer strategies (GPU-to-GPU,
  Host-to-Host, PFS) × two capture modes (sync, async) and their timing
  laws over a hardware profile.
- :mod:`selector` — the Transfer Selector choosing a strategy per save
  request (GPU-direct preferred, host RDMA fallback, PFS last).
- :mod:`double_buffer` — the consumer-side double buffer with an atomic
  primary/alternate swap.
- :mod:`engine` — the one background worker class; the handler runs
  one instance for asynchronous delivery and one flushing historical
  checkpoints to the PFS for fault tolerance.
- :mod:`pipeline` — the chunked-transfer knob, which drives only the
  simulated stage-overlap law, and the one-pass ``serialize_pipelined``.
- :mod:`delta` — the delta wire path (positional reuse/literal recipe
  frames checked by CRC-32, DeltaManager negotiation); the one mechanism
  that ships only what changed.
- :mod:`handler` — the Model Weights Handler facade processing
  save/load requests end to end.
"""

from repro.core.transfer.delta import (
    DeltaConfig,
    DeltaManager,
    DeltaStats,
    decode_frame,
    encode_frame,
    is_delta_frame,
)
from repro.core.transfer.pipeline import PipelineConfig
from repro.core.transfer.strategies import (
    CaptureMode,
    StrategyTimings,
    TransferStrategy,
    compute_timings,
    pipelined_phase_cost,
)
from repro.core.transfer.selector import TransferSelector
from repro.core.transfer.double_buffer import DoubleBuffer
from repro.core.transfer.engine import AsyncTransferEngine
from repro.core.transfer.handler import ModelWeightsHandler, UpdateResult, LoadResult

__all__ = [
    "TransferStrategy",
    "CaptureMode",
    "StrategyTimings",
    "compute_timings",
    "pipelined_phase_cost",
    "PipelineConfig",
    "DeltaConfig",
    "DeltaManager",
    "DeltaStats",
    "encode_frame",
    "decode_frame",
    "is_delta_frame",
    "TransferSelector",
    "DoubleBuffer",
    "AsyncTransferEngine",
    "ModelWeightsHandler",
    "UpdateResult",
    "LoadResult",
]
