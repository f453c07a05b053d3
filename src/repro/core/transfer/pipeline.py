"""Chunked, zero-copy checkpoint transfer (FastPersist-style).

The building blocks of the chunked path, and its knob:

- :class:`Chunker` — splits a serialized checkpoint (one buffer or an
  iovec of buffers from ``Serializer.dump_chunks``) into bounded-size
  ``memoryview`` slices without copying a single byte (the delta path
  cuts its digest grid with it);
- :class:`BufferPool` — reusable pre-allocated ``bytearray`` buffers for
  the receive/reassembly side (``Endpoint.recv_scatter``), so
  steady-state transfers allocate nothing;
- :func:`serialize_pipelined` — the save path's one serialize: one
  ``dump_chunks`` pass and one join, whatever the knob says;
- :class:`PipelineConfig` — the single knob object threaded through
  ``Viper(pipeline=...)``, the strategies, and the
  :class:`~repro.core.transfer.handler.ModelWeightsHandler`.

On the wall clock the knob turns on the zero-copy load
(``Serializer.loads(..., copy=False)``: the consumer reads the weights in
place).  Its stage overlap lives in the *simulated* law:
:meth:`repro.substrates.network.links.LinkSpec.pipelined_transfer_time`
and :func:`repro.core.transfer.strategies.compute_timings` (``pipeline=``
argument).  No wall-clock executor overlaps the serialize copy: in one
Python process the GIL serialises it, and a threaded assemble measured
slower than the plain join.

Chunking helps when the payload is large relative to per-chunk setup
cost (big models, high-latency links); it hurts when per-message
overhead dominates (tiny checkpoints, sub-megabyte chunks).  The
simulated law therefore falls back to monolithic behaviour at one chunk.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.errors import ConfigurationError, TransferError
from repro.substrates.cost import MB

__all__ = [
    "PipelineConfig",
    "Chunker",
    "BufferPool",
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

    ``enabled=False`` (the default) keeps the original monolithic path
    byte-for-byte intact; the pipeline is strictly opt-in.  ``lanes`` is
    the number of parallel lanes the simulated law issues chunks on.
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


class Chunker:
    """Zero-copy splitter: buffers in, bounded ``memoryview`` slices out.

    Every produced chunk is a read-only view into the caller's buffers;
    concatenating the chunks reproduces the input byte stream exactly.
    """

    def __init__(self, chunk_bytes: int = DEFAULT_CHUNK_BYTES):
        if chunk_bytes <= 0:
            raise ConfigurationError(
                f"chunk_bytes must be positive, got {chunk_bytes}"
            )
        self.chunk_bytes = chunk_bytes

    def split(self, buf) -> Iterable[memoryview]:
        """Split one bytes-like buffer into <= chunk_bytes views."""
        mv = memoryview(buf)
        if mv.ndim != 1 or mv.itemsize != 1:
            mv = mv.cast("B")
        if len(mv) == 0:
            yield mv
            return
        for start in range(0, len(mv), self.chunk_bytes):
            yield mv[start : start + self.chunk_bytes]

    def split_pieces(self, pieces: Iterable) -> Iterable[memoryview]:
        """Split an iovec (iterable of buffers) into bounded chunks.

        Small pieces (headers) pass through untouched; oversized pieces
        (tensor payloads) are sliced.  No byte is ever copied, so chunk
        boundaries follow piece boundaries rather than a strict grid —
        every chunk is still <= ``chunk_bytes``.
        """
        for piece in pieces:
            mv = memoryview(piece)
            if mv.ndim != 1 or mv.itemsize != 1:
                mv = mv.cast("B")
            if len(mv) == 0:
                continue
            if len(mv) <= self.chunk_bytes:
                yield mv
            else:
                for start in range(0, len(mv), self.chunk_bytes):
                    yield mv[start : start + self.chunk_bytes]


class BufferPool:
    """Reusable pre-allocated transfer buffers.

    ``acquire(nbytes)`` hands out a ``bytearray`` with capacity >= nbytes,
    recycling released buffers so steady-state transfers perform zero
    allocations.  Thread-safe; ``release`` returns a buffer to the pool.

    Retention is capped: a buffer grown beyond ``max_retain_bytes`` is
    shrunk back to the cap when released, so one giant transfer cannot
    pin its peak footprint for the lifetime of the pool (the
    large-then-small sequence: without the cap, a 1 GB acquire followed
    by 4 KB steady-state traffic retains the full gigabyte forever).
    ``max_retain_bytes=None`` disables the cap.
    """

    def __init__(self, max_buffers: int = 4, initial_bytes: int = 0,
                 max_retain_bytes: Optional[int] = DEFAULT_CHUNK_BYTES):
        if max_buffers < 1:
            raise ConfigurationError(
                f"max_buffers must be >= 1, got {max_buffers}"
            )
        if max_retain_bytes is not None and max_retain_bytes < 1:
            raise ConfigurationError(
                f"max_retain_bytes must be >= 1 or None, got {max_retain_bytes}"
            )
        self._max = max_buffers
        self._max_retain = max_retain_bytes
        self._lock = threading.Lock()
        self._free: List[bytearray] = []
        self._outstanding = 0
        self.allocations = 0  # buffers created or grown
        self.reuses = 0       # acquisitions served without allocating
        self.shrinks = 0      # oversized buffers trimmed on release
        if initial_bytes > 0:
            self._free.append(bytearray(initial_bytes))
            self.allocations += 1

    def acquire(self, nbytes: int) -> bytearray:
        if nbytes < 0:
            raise ConfigurationError(f"acquire: nbytes must be >= 0, got {nbytes}")
        with self._lock:
            # Best fit: smallest free buffer that is already large enough.
            best = None
            for buf in self._free:
                if len(buf) >= nbytes and (best is None or len(buf) < len(best)):
                    best = buf
            if best is not None:
                self._free.remove(best)
                self._outstanding += 1
                self.reuses += 1
                return best
            if self._free:
                # Grow an existing buffer in place rather than allocating
                # a second large one.
                buf = max(self._free, key=len)
                self._free.remove(buf)
                buf.extend(bytes(nbytes - len(buf)))
                self._outstanding += 1
                self.allocations += 1
                return buf
            if self._outstanding >= self._max:
                raise TransferError(
                    f"buffer pool exhausted ({self._max} buffers outstanding)"
                )
            self._outstanding += 1
            self.allocations += 1
        return bytearray(nbytes)

    def release(self, buf: bytearray) -> None:
        if self._max_retain is not None and len(buf) > self._max_retain:
            try:
                # Shrink outside the lock; del on a bytearray tail releases
                # the memory immediately (unlike slicing, no second copy).
                del buf[self._max_retain:]
            except BufferError:
                # A live memoryview export pins the bytearray's size, so
                # it can't be shrunk.  Drop it instead of retaining an
                # oversized buffer; the caller keeps its view valid.
                with self._lock:
                    self._outstanding -= 1
                return
            with self._lock:
                self.shrinks += 1
        with self._lock:
            self._outstanding -= 1
            if len(self._free) < self._max:
                self._free.append(buf)

    @property
    def outstanding(self) -> int:
        with self._lock:
            return self._outstanding

    @property
    def retained_bytes(self) -> int:
        """Total capacity currently held idle in the free list."""
        with self._lock:
            return sum(len(b) for b in self._free)


def serialize_pipelined(
    serializer, state, *, piece_lengths: Optional[List[int]] = None
) -> bytes:
    """The save path's one serialize: a ``dump_chunks`` pass plus one join.

    The iovec pieces are views over the live tensors, so the join is the
    only full-payload copy and its result is the one immutable blob the
    producer cache, the tier stores and the flusher share.  Output is
    byte-identical to ``serializer.dumps(state)``.  A list passed as
    ``piece_lengths`` receives the byte length of every serializer piece,
    so a caller that chunks the blob on piece boundaries (the delta path)
    need not take the ``dump_chunks`` pass — it checksums every byte — a
    second time.
    """
    pieces = list(serializer.dump_chunks(state))
    if piece_lengths is not None:
        piece_lengths.extend(memoryview(p).nbytes for p in pieces)
    return b"".join(pieces)
