"""Chunked, pipelined, zero-copy checkpoint transfer (FastPersist-style).

The monolithic transfer path moves each checkpoint as one blob through
capture -> wire -> load, paying every stage serially and copying the full
payload at each hop.  This module provides the three building blocks that
turn that into an overlapped pipeline:

- :class:`Chunker` — splits a serialized checkpoint (one buffer or an
  iovec of buffers from ``Serializer.dump_chunks``) into bounded-size
  ``memoryview`` slices without copying a single byte;
- :class:`BufferPool` — reusable pre-allocated ``bytearray`` buffers for
  the receive/reassembly side, so steady-state transfers allocate nothing;
- :class:`PipelinedTransfer` — a staged executor that streams chunks
  through capture/wire/load stages with ``lanes`` workers per stage, so
  total wall time approaches ``fill + max-stage`` instead of
  ``sum-of-stages``.

The matching *simulated* law lives in
:meth:`repro.substrates.network.links.LinkSpec.pipelined_transfer_time`
and :func:`repro.core.transfer.strategies.compute_timings` (``pipeline=``
argument); :class:`PipelineConfig` is the single knob object threaded
through ``Viper(pipeline=...)``, the strategies, and the
:class:`~repro.core.transfer.handler.ModelWeightsHandler`.

Chunking helps when the payload is large relative to per-chunk setup
cost (big models, high-latency links); it hurts when per-message
overhead dominates (tiny checkpoints, sub-megabyte chunks).  Both the
simulated law and the executor therefore fall back to monolithic
behaviour at one chunk.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError, TransferError
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER
from repro.substrates.cost import MB

__all__ = [
    "PipelineConfig",
    "Chunker",
    "BufferPool",
    "PipelinedTransfer",
    "PipelineResult",
    "assemble_into",
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
    byte-for-byte intact; the pipeline is strictly opt-in.
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


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of one :meth:`PipelinedTransfer.run`."""

    nchunks: int
    results: Tuple
    elapsed: float
    stage_seconds: Dict[str, float]  # summed wall time per stage


_DONE = object()


class PipelinedTransfer:
    """Streams chunks through named stages with ``lanes`` workers each.

    ``stages`` is an ordered sequence of ``(name, fn)`` pairs; each
    ``fn(item, index)`` transforms one chunk and hands the result to the
    next stage.  Chunk *i+1* enters stage *s* while chunk *i* is still in
    stage *s+1*, so the wall-clock total approaches
    ``fill + nchunks * max_stage`` instead of ``nchunks * sum_stages``.
    Results are returned in chunk order regardless of completion order.

    Per-chunk stage timing is recorded into ``metrics`` histograms
    (``pipeline_stage_seconds{stage=...}``) and, when a tracer is given,
    as ``pipeline.<stage>`` spans.
    """

    def __init__(
        self,
        stages: Sequence[Tuple[str, Callable]],
        *,
        lanes: int = 2,
        tracer=None,
        metrics=None,
        name: str = "pipeline",
        trace_ctx: str = "",
    ):
        if not stages:
            raise ConfigurationError("PipelinedTransfer needs at least one stage")
        if lanes < 1:
            raise ConfigurationError(f"lanes must be >= 1, got {lanes}")
        self.stages = list(stages)
        self.lanes = lanes
        self.name = name
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        #: Lineage trace header stamped onto every chunk span, so the
        #: per-chunk work joins the version's distributed trace.
        self.trace_ctx = trace_ctx

    def run(self, chunks: Iterable, timeout: float = 120.0) -> PipelineResult:
        start = time.perf_counter()
        nstages = len(self.stages)
        queues: List["queue.Queue"] = [queue.Queue() for _ in range(nstages)]
        results: Dict[int, object] = {}
        stage_seconds = {sname: 0.0 for sname, _ in self.stages}
        lock = threading.Lock()
        errors: List[BaseException] = []
        stop = threading.Event()
        # Precomputed once: empty headers add zero per-chunk span attrs.
        span_extra = {"trace_ctx": self.trace_ctx} if self.trace_ctx else {}

        def worker(stage_idx: int) -> None:
            sname, fn = self.stages[stage_idx]
            q = queues[stage_idx]
            while not stop.is_set():
                item = q.get()
                if item is _DONE:
                    q.put(_DONE)  # let sibling lanes drain too
                    return
                index, payload = item
                try:
                    t0 = time.perf_counter()
                    with self.tracer.span(
                        f"pipeline.{sname}", track=self.name, chunk=index,
                        **span_extra,
                    ):
                        out = fn(payload, index)
                    dt = time.perf_counter() - t0
                    with lock:
                        stage_seconds[sname] += dt
                    self.metrics.histogram(
                        "pipeline_stage_seconds", stage=sname
                    ).observe(dt)
                    if stage_idx + 1 < nstages:
                        queues[stage_idx + 1].put((index, out))
                    else:
                        with lock:
                            results[index] = out
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    with lock:
                        errors.append(exc)
                    stop.set()
                    for qq in queues:  # wake every blocked worker
                        qq.put(_DONE)
                    return

        threads = [
            threading.Thread(
                target=worker,
                args=(s,),
                daemon=True,
                name=f"{self.name}-{self.stages[s][0]}-{lane}",
            )
            for s in range(nstages)
            for lane in range(self.lanes)
        ]
        for t in threads:
            t.start()

        nchunks = 0
        for chunk in chunks:
            queues[0].put((nchunks, chunk))
            nchunks += 1
        queues[0].put(_DONE)

        deadline = time.monotonic() + timeout
        for s in range(nstages):
            # Wait for this stage's lanes to drain before releasing the next.
            for t in threads[s * self.lanes : (s + 1) * self.lanes]:
                t.join(max(0.0, deadline - time.monotonic()))
                if t.is_alive():
                    stop.set()
                    raise TransferError(
                        f"{self.name}: stage {self.stages[s][0]!r} timed out"
                    )
            if s + 1 < nstages:
                queues[s + 1].put(_DONE)

        if errors:
            raise errors[0]
        ordered = tuple(results[i] for i in range(nchunks))
        return PipelineResult(
            nchunks=nchunks,
            results=ordered,
            elapsed=time.perf_counter() - start,
            stage_seconds=stage_seconds,
        )


def assemble_into(buf: bytearray, chunks: Iterable) -> memoryview:
    """Copy ``chunks`` back-to-back into ``buf``; returns the filled view.

    The single reassembly copy of the pipelined path — the only full-payload
    copy between capture and a zero-copy ``loads(..., copy=False)``.
    """
    out = memoryview(buf)
    offset = 0
    for chunk in chunks:
        mv = memoryview(chunk)
        if mv.ndim != 1 or mv.itemsize != 1:
            mv = mv.cast("B")
        end = offset + len(mv)
        if end > len(out):
            raise TransferError(
                f"assemble_into: buffer too small ({len(out)} < {end})"
            )
        out[offset:end] = mv
        offset = end
    return out[:offset]


def serialize_pipelined(
    serializer,
    state,
    config: PipelineConfig,
    *,
    tracer=None,
    metrics=None,
    pool: Optional[BufferPool] = None,
    trace_ctx: str = "",
    piece_lengths: Optional[List[int]] = None,
) -> Union[bytes, bytearray]:
    """Serialize ``state`` through the chunk pipeline into one blob.

    The capture stage produces zero-copy iovec chunks
    (``serializer.dump_chunks``), the assemble stage streams them into a
    single output buffer — overlapping tensor traversal with the copy-out,
    and skipping the per-tensor ``tobytes`` plus the monolithic join copy.
    Output is byte-identical to ``serializer.dumps(state)``.

    Without a pool the assembled ``bytearray`` is returned outright
    (single copy end to end); with a pool, the pooled buffer is snapshotted
    to ``bytes`` and recycled.  A list passed as ``piece_lengths`` receives
    the byte length of every serializer piece, so a caller that chunks the
    blob on piece boundaries (the delta path) need not take the
    ``dump_chunks`` pass — it checksums every byte — a second time.
    """
    chunker = Chunker(config.chunk_bytes)
    iovec = serializer.dump_chunks(state)
    if piece_lengths is not None:
        iovec = list(iovec)
        piece_lengths.extend(memoryview(p).nbytes for p in iovec)
    pieces = list(chunker.split_pieces(iovec))
    total = sum(len(p) for p in pieces)
    buf = pool.acquire(total) if pool is not None else bytearray(total)
    offsets = []
    offset = 0
    for p in pieces:
        offsets.append(offset)
        offset += len(p)
    out = memoryview(buf)

    def copy_stage(chunk, index):
        start = offsets[index]
        out[start : start + len(chunk)] = chunk
        return len(chunk)

    pipe = PipelinedTransfer(
        [("assemble", copy_stage)],
        lanes=config.lanes,
        tracer=tracer,
        metrics=metrics,
        name="serialize-pipeline",
        trace_ctx=trace_ctx,
    )
    pipe.run(pieces)
    if pool is None:
        return buf if len(buf) == total else bytes(out[:total])
    blob = bytes(out[:total])
    # Release the export before handing the buffer back: a live
    # memoryview pins the bytearray's size, which would defeat (or
    # crash) the pool's shrink-on-release retention cap.
    out.release()
    pool.release(buf)
    return blob
