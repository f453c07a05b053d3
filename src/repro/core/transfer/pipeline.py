"""Chunked checkpoint transfer (FastPersist-style): the knob and the
monolithic save path's serialize.

- :func:`serialize_pipelined` — the monolithic save path's one
  serialize: one ``dump_chunks`` pass and one join, whatever the knob
  says;
- :class:`PipelineConfig` — the single knob object threaded through
  ``Viper(pipeline=...)``, the strategies, and the
  :class:`~repro.core.transfer.handler.ModelWeightsHandler`.

The knob drives one thing: the *simulated* stage-overlap law,
:meth:`repro.substrates.network.links.LinkSpec.pipelined_transfer_time`
and :func:`repro.core.transfer.strategies.compute_timings` (``pipeline=``
argument).  On the wall clock the save and the load are the same whatever
it says.  No wall-clock executor overlaps the serialize copy: in one
Python process the GIL serialises it, and a threaded assemble measured
slower than the plain join.  Every load reads the verified blob in place
(``Serializer.loads(..., copy=False)``), and the consumer's replica
adopts each aligned view (``load_state_dict(state, copy=False)``).

Chunking helps when the payload is large relative to per-chunk setup
cost (big models, high-latency links); it hurts when per-message
overhead dominates (tiny checkpoints, sub-megabyte chunks).  The
simulated law therefore falls back to monolithic behaviour at one chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.substrates.cost import MB

__all__ = [
    "PipelineConfig",
    "serialize_pipelined",
]

#: Default chunk size: large enough to amortize the modeled links'
#: millisecond-class per-message overheads (256 MB / 8 GB/s ≈ 32 ms per
#: chunk vs 5 ms setup), small enough that a GB-class checkpoint still
#: splits into enough chunks to overlap its stages.  Wall-clock callers
#: moving smaller real payloads should size chunks down accordingly.
DEFAULT_CHUNK_BYTES = 256 * MB


@dataclass(frozen=True)
class PipelineConfig:
    """The pipeline knob threaded through Viper -> strategies -> handler.

    It selects the simulated timing law only: ``enabled=True`` prices a
    transfer as ``chunk_bytes`` chunks whose stages overlap on ``lanes``
    parallel lanes; ``enabled=False`` (the default) prices it
    monolithically.  The bytes saved, shipped and loaded are the same
    either way.
    """

    enabled: bool = False
    chunk_bytes: int = DEFAULT_CHUNK_BYTES
    lanes: int = 2

    def __post_init__(self):
        if self.chunk_bytes <= 0:
            raise ConfigurationError(
                f"pipeline chunk_bytes must be positive, got {self.chunk_bytes}"
            )
        if self.lanes < 1:
            raise ConfigurationError(
                f"pipeline lanes must be >= 1, got {self.lanes}"
            )

    def nchunks(self, nbytes: int) -> int:
        """Number of chunks a payload of ``nbytes`` splits into (>= 1)."""
        if nbytes <= 0:
            return 1
        return -(-nbytes // self.chunk_bytes)  # ceil division


def serialize_pipelined(serializer, state) -> bytes:
    """The monolithic save path's one serialize: a ``dump_chunks`` pass
    plus one join.

    The iovec pieces are views over the live tensors, so the join is the
    only full-payload copy and its result is the one immutable blob the
    tier stores and the flusher share.  Output is byte-identical to
    ``serializer.dumps(state)``.  With delta on, the
    :class:`~repro.core.transfer.delta.DeltaManager` serializes instead,
    piece by piece against the consumer's base.
    """
    return b"".join(serializer.dump_chunks(state))
