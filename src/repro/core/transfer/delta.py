"""Delta checkpoint transfer: stop moving unchanged bytes.

The monolithic path ships every serialized byte of every version, even
when a fine-tuning step touched a fraction of the parameters — exactly
the paper's PFS-tier worst case (7.6 s per update).  This module makes
the per-update wire cost proportional to what *changed* (Checkmate-style
delta replication), transparently: ``Viper(delta=True)`` and the
application still saves and loads whole state dicts.

1. **Chunking** — the serialized v2 blob is cut into bounded chunks
   whose boundaries follow the serializer's iovec piece boundaries
   (header pieces and per-tensor payloads), so an unchanged tensor
   produces bit-identical chunks between versions even when a
   neighbouring tensor changed.  Each chunk is identified by a 16-byte
   BLAKE2b digest.
2. **Chunk index** — per consumer-held version, a digest -> (offset,
   length) map over the base blob (:class:`ChunkIndex`).
3. **Negotiation** — the producer-side :class:`DeltaManager` knows which
   version each consumer last loaded (registered on every successful
   load) and diffs the new blob against that base.  An exact per-piece
   byte compare with the retained base blob runs first: a
   near-fully-changed blob short-circuits straight to the monolithic
   path before any digest is computed, and otherwise unchanged pieces
   take over the base's digests so only changed pieces are hashed.
4. **Recipe** — the producer ships a *delta frame* (wire format v3): an
   ordered list of ``reuse(offset, length, digest)`` /
   ``literal(bytes)`` ops plus the reconstruction target's length and
   CRC-32.  Literals ship raw: the op's codec byte is reserved and
   always 0.  No codec pays here — zlib trims a 10 %-changed frame by
   ~7 % at a third of the encode throughput, and every link a frame
   crosses runs at >= 1 GB/s (``docs/architecture.md``).
5. **Reconstruction** — the consumer replays the recipe against its held
   base blob, verifying every reused chunk's digest, every literal's
   length and digest, and finally the whole reconstructed blob's CRC-32
   — *then* the inner v2 header checksum is compared again inside
   ``Serializer.loads`` before the double-buffer swap.  Corruption at
   any level raises :class:`~repro.errors.IntegrityError`; a missing or
   mismatched base raises :class:`DeltaBaseError` so the handler can
   fall back to the monolithic blob instead of erroring the update wave.

Every byte is hashed once per side: digests and CRCs that one step
computed or verified travel with the blob as data (``ChunkIndex`` on the
producer, the held base's CRC and ``(offset, length) -> digest`` table
on the consumer) instead of being recomputed by the next step.  The two
CRC-32s over one blob — the v2 header's over its payload and the
frame's over the whole — are derived from each other with
:func:`~repro.dnn.serialization.crc32_combine`: the producer's out-CRC
from the header ``dump_chunks`` just wrote (``Serializer.blob_crc``),
the consumer's inner check from the verified out-CRC
(:meth:`DeltaManager.decoded_crc` -> ``loads(..., blob_crc=)``).  A bare
:func:`encode_frame` / :func:`decode_frame` call carries nothing and
hashes everything; ``docs/architecture.md`` tabulates who hashes what.

Fallback rules (all decided per save/load, never per deployment):

- no base version registered for the consumer -> monolithic;
- the encoded frame is not smaller than the full blob -> monolithic;
- the piece compare says (almost) everything changed -> monolithic,
  skipping the digest pass entirely;
- the consumer lost its base, or reconstruction failed verification ->
  the handler re-fetches the producer-retained monolithic blob.
"""

from __future__ import annotations

import hashlib
import struct
import threading
import zlib
from dataclasses import dataclass, field
from itertools import accumulate, islice
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import DeltaBaseError, IntegrityError, StorageError
from repro.core.transfer.pipeline import Chunker
from repro.substrates.cost import KB

__all__ = [
    "DeltaConfig",
    "DeltaBaseError",
    "ChunkIndex",
    "DeltaStats",
    "DELTA_MAGIC",
    "FULL_CHANGE_THRESHOLD",
    "CACHE_VERSIONS",
    "chunk_bounds",
    "encode_frame",
    "decode_frame",
    "is_delta_frame",
    "frame_info",
    "DeltaManager",
]

DELTA_MAGIC = b"VPRD"
#: Wire format v3: v1 was the raw packed-tensor stream, v2 added the
#: CRC-32 header (both in dnn/serialization.py); v3 is this delta frame
#: wrapping a v2 blob as a recipe against a consumer-held base.
_FRAME_VERSION = 3
_DIGEST_BYTES = 16
_OP_REUSE = 0
_OP_LITERAL = 1
#: Frame header: magic | u32 version | u64 base_len | u32 base_crc
#: | u64 out_len | u32 out_crc | u32 nops
_HEADER = struct.Struct("<4sIQIQII")
_REUSE = struct.Struct("<BQQ16s")      # tag, offset, length, digest
#: tag, codec, orig_len, enc_len, digest.  The codec byte is reserved:
#: always 0, with ``enc_len == orig_len`` (the literal ships raw).
_LITERAL = struct.Struct("<BBQQ16s")

#: Default chunk size for content digests.  Small enough that a 10%-row
#: update to a wide layer re-ships ~10% of it, large enough that the
#: per-chunk recipe overhead (33-34 B/op) stays under 0.1% of moved
#: bytes.  Distinct from the pipeline's 256 MB *lane* chunks: digest
#: chunks bound dedup granularity, lane chunks bound stage overlap.
DEFAULT_DELTA_CHUNK_BYTES = 64 * KB
#: Piece-compare early-out: when changed pieces hold at least this
#: fraction of the blob's bytes, skip delta encoding entirely — the
#: recipe cannot win.
FULL_CHANGE_THRESHOLD = 0.9
#: Producer-side monolithic blobs retained per model for diffing and for
#: the consumer's missing-base fallback.
CACHE_VERSIONS = 4


@dataclass(frozen=True)
class DeltaConfig:
    """The delta knob threaded through Viper -> handler.

    ``enabled=False`` (the default) keeps the monolithic path
    byte-for-byte intact; delta transfer is strictly opt-in.
    """

    enabled: bool = False
    chunk_bytes: int = DEFAULT_DELTA_CHUNK_BYTES

    def __post_init__(self):
        from repro.errors import ConfigurationError

        if self.chunk_bytes <= 0:
            raise ConfigurationError(
                f"delta chunk_bytes must be positive, got {self.chunk_bytes}"
            )


@dataclass(frozen=True)
class DeltaStats:
    """What one frame encode decided and saved."""

    mode: str                 # "delta" | "monolithic"
    bytes_total: int          # reconstructed (full blob) size
    bytes_on_wire: int        # frame (or full blob) size actually shipped
    bytes_reused: int = 0     # payload bytes satisfied by reuse ops
    chunks_total: int = 0
    chunks_reused: int = 0

    @property
    def bytes_saved_dedup(self) -> int:
        return self.bytes_reused

    @property
    def dedup_hit_ratio(self) -> float:
        if self.chunks_total == 0:
            return 0.0
        return self.chunks_reused / self.chunks_total

    @property
    def wire_fraction(self) -> float:
        """Bytes shipped / bytes represented (the timing-law scale)."""
        if self.bytes_total == 0:
            return 1.0
        return self.bytes_on_wire / self.bytes_total


def chunk_bounds(piece_lengths: Iterable[int], chunk_bytes: int) -> List[Tuple[int, int]]:
    """(offset, length) chunk grid over a piece stream.

    Boundaries restart at every piece, so a length-stable prefix of the
    stream chunks identically across versions regardless of what later
    pieces did — the property that makes fixed-grid digests behave like
    content-defined chunking for checkpoint state.
    """
    bounds: List[Tuple[int, int]] = []
    offset = 0
    for plen in piece_lengths:
        start = 0
        while start < plen:
            size = min(chunk_bytes, plen - start)
            bounds.append((offset + start, size))
            start += size
        offset += plen
    return bounds


def _digest(chunk) -> bytes:
    return hashlib.blake2b(chunk, digest_size=_DIGEST_BYTES).digest()


class ChunkIndex:
    """digest -> (offset, length) map over one base blob.

    ``digests`` (one slot per :func:`chunk_bounds` entry, in grid order)
    and ``crc`` carry what an earlier step already computed over these
    bytes; only the ``None`` slots are hashed here.
    """

    def __init__(self, blob: bytes, chunk_bytes: int,
                 piece_lengths: Optional[Iterable[int]] = None, *,
                 digests: Optional[Sequence[Optional[bytes]]] = None,
                 crc: Optional[int] = None):
        self.blob = bytes(blob)  # no copy when already immutable
        self.chunk_bytes = chunk_bytes
        self.crc = zlib.crc32(self.blob) if crc is None else crc
        lengths = [len(self.blob)] if piece_lengths is None else list(piece_lengths)
        bounds = chunk_bounds(lengths, chunk_bytes)
        mv = memoryview(self.blob)
        carried = digests if digests is not None else [None] * len(bounds)
        self.digests: List[bytes] = [
            d if d is not None else _digest(mv[offset : offset + length])
            for d, (offset, length) in zip(carried, bounds)
        ]
        self._by_digest: Dict[bytes, Tuple[int, int]] = {}
        for d, bound in zip(self.digests, bounds):
            # First occurrence wins; duplicate chunks (zero pages) all
            # resolve to one base location, which is exactly dedup.
            self._by_digest.setdefault(d, bound)

    def lookup(self, digest: bytes) -> Optional[Tuple[int, int]]:
        return self._by_digest.get(digest)

    def __len__(self) -> int:
        return len(self._by_digest)


def encode_frame(
    base: ChunkIndex,
    pieces: Iterable,
    chunk_bytes: int,
    *,
    digests: Optional[Sequence[bytes]] = None,
    out_crc: Optional[int] = None,
) -> Tuple[bytes, DeltaStats]:
    """Encode a piece stream as a v3 delta frame against ``base``.

    ``pieces`` is the serializer's iovec (``dump_chunks`` output).
    ``digests`` (one per chunk) and ``out_crc`` are the stream's own, when
    the caller already holds them; what is missing is computed here.
    Returns ``(frame, stats)``; the caller compares ``len(frame)``
    against the full blob and falls back to monolithic when the recipe
    does not win.
    """
    # The chunk_bounds grid as zero-copy views (it restarts at every piece).
    chunks: List[memoryview] = list(Chunker(chunk_bytes).split_pieces(pieces))
    out_len = sum(len(chunk) for chunk in chunks)
    if out_crc is None:
        out_crc = 0
        for chunk in chunks:
            out_crc = zlib.crc32(chunk, out_crc)
    if digests is None:
        digests = [_digest(chunk) for chunk in chunks]

    parts: List = [b""]  # placeholder for the header
    bytes_reused = chunks_reused = 0
    for chunk, d in zip(chunks, digests):
        hit = base.lookup(d)
        if hit is not None:
            parts.append(_REUSE.pack(_OP_REUSE, hit[0], hit[1], d))
            bytes_reused += hit[1]
            chunks_reused += 1
        else:
            # The raw view ships as is (no copy before the join).
            n = len(chunk)
            parts += (_LITERAL.pack(_OP_LITERAL, 0, n, n, d), chunk)
    parts[0] = _HEADER.pack(
        DELTA_MAGIC, _FRAME_VERSION, len(base.blob), base.crc,
        out_len, out_crc, len(chunks),
    )
    frame = b"".join(parts)
    stats = DeltaStats(
        mode="delta",
        bytes_total=out_len,
        bytes_on_wire=len(frame),
        bytes_reused=bytes_reused,
        chunks_total=len(chunks),
        chunks_reused=chunks_reused,
    )
    return frame, stats


def is_delta_frame(blob) -> bool:
    """True when ``blob`` is a v3 delta frame (by magic)."""
    return bytes(memoryview(blob)[:4]) == DELTA_MAGIC


def frame_info(frame) -> Dict[str, int]:
    """Header fields of a v3 frame (without decoding the ops).

    A blob without the magic is not a frame (:class:`StorageError`); one
    with the magic but a short header or another version is a corrupt
    frame (:class:`~repro.errors.IntegrityError`), so a retry re-fetches
    it and the load counts as a corruption.
    """
    mv = memoryview(frame)
    if bytes(mv[:4]) != DELTA_MAGIC:
        raise StorageError("not a delta frame (bad magic)")
    if len(mv) < _HEADER.size:
        raise IntegrityError("truncated delta frame (header)")
    magic, version, base_len, base_crc, out_len, out_crc, nops = (
        _HEADER.unpack_from(mv, 0)
    )
    if version != _FRAME_VERSION:
        raise IntegrityError(f"unsupported delta frame version {version}")
    return {
        "version": version,
        "base_len": base_len,
        "base_crc": base_crc,
        "out_len": out_len,
        "out_crc": out_crc,
        "nops": nops,
    }


@dataclass
class _HeldBase:
    """A consumer-held blob plus what is already verified about it."""

    blob: bytes
    #: CRC-32 of ``blob``: the out-CRC checked when it was reconstructed,
    #: else computed by the first decode against it.
    crc: Optional[int] = None
    #: (offset, length) -> digest, for the chunks whose digest was checked.
    digests: Dict[Tuple[int, int], bytes] = field(default_factory=dict)


def decode_frame(frame, base_blob: Optional[bytes]) -> bytes:
    """Reconstruct the full v2 blob from a frame plus the held base.

    Verification is layered: reuse ops check the base range's digest,
    literal ops check their reserved codec byte, length and digest,
    and the whole reconstruction checks against the frame's CRC-32 — any
    mismatch raises :class:`~repro.errors.IntegrityError` before a
    single byte can reach the double buffer.  A missing/mismatched base
    raises :class:`DeltaBaseError` (fall back, don't fail).  Called bare
    like this, nothing is known about ``base_blob``: its CRC and every
    range the recipe reuses are hashed here.
    """
    base = _HeldBase(base_blob) if base_blob is not None else None
    return _reconstruct(frame, base).blob


def _reconstruct(frame, base: Optional[_HeldBase]) -> _HeldBase:
    """:func:`decode_frame` against a base that remembers its checks.

    A reuse op whose ``(offset, length)`` is in ``base.digests`` compares
    the recipe's digest with the recorded one; any other range is hashed.
    Returns the reconstruction with its verified out-CRC and the digest
    of every chunk in it.  ``base`` learns its CRC and the ranges hashed
    here only once the whole decode has verified, so a failed decode
    leaves it exactly as it was.
    """
    info = frame_info(frame)
    mv = memoryview(frame)
    base_mv = memoryview(b"")
    known: Dict[Tuple[int, int], bytes] = {}
    if info["base_len"]:
        if base is None:
            raise DeltaBaseError(
                f"delta frame needs a {info['base_len']}-byte base blob "
                f"but none is held"
            )
        base_crc = base.crc
        if base_crc is None and len(base.blob) == info["base_len"]:
            base_crc = zlib.crc32(base.blob)
        if len(base.blob) != info["base_len"] or base_crc != info["base_crc"]:
            raise DeltaBaseError(
                f"held base does not match the frame's negotiated base "
                f"(len {len(base.blob)} vs {info['base_len']})"
            )
        base_mv = memoryview(base.blob)
        known = base.digests

    parts: List = []  # literals and coalesced base ranges, in order
    run_start = run_end = 0  # the base range being coalesced
    learned: Dict[Tuple[int, int], bytes] = {}
    digests: Dict[Tuple[int, int], bytes] = {}
    pos = _HEADER.size
    write = 0
    for _ in range(info["nops"]):
        if pos >= len(mv):
            raise IntegrityError("truncated delta frame (ops)")
        tag = mv[pos]
        if tag == _OP_REUSE:
            if pos + _REUSE.size > len(mv):
                raise IntegrityError("truncated delta frame (reuse op header)")
            _tag, offset, size, digest = _REUSE.unpack_from(mv, pos)
            pos += _REUSE.size
            if offset + size > len(base_mv):
                raise DeltaBaseError(
                    f"reuse op [{offset}:{offset + size}] exceeds the "
                    f"held base ({len(base_mv)} bytes)"
                )
            key = (offset, size)
            have = known.get(key) or learned.get(key)
            if have is None:
                have = learned[key] = _digest(base_mv[offset : offset + size])
            if have != digest:
                raise IntegrityError(
                    "reused chunk digest mismatch (base blob corrupt?)"
                )
            if offset != run_end:  # not adjacent: close the open range
                parts.append(base_mv[run_start:run_end])
                run_start = offset
            run_end = offset + size
        elif tag == _OP_LITERAL:
            if pos + _LITERAL.size > len(mv):
                raise IntegrityError(
                    "truncated delta frame (literal op header)"
                )
            _tag, codec_id, size, enc_len, digest = (
                _LITERAL.unpack_from(mv, pos)
            )
            pos += _LITERAL.size
            if codec_id != 0:
                raise IntegrityError(
                    f"literal op names codec {codec_id}; the byte is "
                    f"reserved and always 0"
                )
            if enc_len != size:
                raise IntegrityError(
                    f"literal op carries {enc_len} bytes for a {size}-byte "
                    f"chunk; literals ship raw",
                    expected=size,
                    actual=enc_len,
                )
            if pos + size > len(mv):
                raise IntegrityError("truncated delta frame (literal)")
            chunk = mv[pos : pos + size]
            pos += size
            if _digest(chunk) != digest:
                raise IntegrityError("literal chunk digest mismatch")
            parts += (base_mv[run_start:run_end], chunk)
            run_start = run_end = 0
        else:
            raise IntegrityError(f"unknown delta op tag {tag}")
        if write + size > info["out_len"]:
            raise IntegrityError("delta recipe overflows the declared length")
        digests[(write, size)] = digest
        write += size
    if write != info["out_len"]:
        raise IntegrityError(
            f"delta recipe reconstructed {write} bytes, header says "
            f"{info['out_len']}"
        )
    parts.append(base_mv[run_start:run_end])
    out = b"".join(parts)
    actual = zlib.crc32(out)
    if actual != info["out_crc"]:
        raise IntegrityError(
            f"reconstructed blob CRC mismatch: frame says "
            f"{info['out_crc']:#010x}, got {actual:#010x}",
            expected=info["out_crc"],
            actual=actual,
        )
    if info["base_len"]:
        base.crc = base_crc
        base.digests.update(learned)
    return _HeldBase(out, actual, digests)


@dataclass
class _ProducerEntry:
    """Producer-retained encode state for one version."""

    blob: bytes
    piece_lengths: List[int]
    #: None until an encode hashes this version or a later save diffs against it.
    index: Optional[ChunkIndex] = None


class DeltaManager:
    """Negotiation state for the delta wire path (both ends).

    Producer side: retains the last :data:`CACHE_VERSIONS` monolithic blobs
    (plus chunk indexes) per model, knows which version the consumer
    holds, and decides delta vs monolithic per save.  Consumer side:
    retains the reconstructed blob of the last successful load per
    model, which is the base the next frame reuses against.  In this
    reproduction both ends live in one process, but the two maps are
    kept strictly separate so losing one side (a restarted consumer)
    exercises the real fallback.
    """

    def __init__(self, config: Optional[DeltaConfig] = None, *, serializer=None):
        self.config = config if config is not None else DeltaConfig()
        self.serializer = serializer
        self._lock = threading.Lock()
        # producer: model -> {version: _ProducerEntry}, insertion-ordered
        self._produced: Dict[str, Dict[int, _ProducerEntry]] = {}
        # negotiation: model -> version the consumer last confirmed
        self._held_version: Dict[str, int] = {}
        # consumer: model -> the held base
        self._held_blob: Dict[str, _HeldBase] = {}
        # consumer: model -> the last reconstruction, until it is registered
        self._decoded: Dict[str, _HeldBase] = {}

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def _remember(self, model_name: str, version: int, entry: _ProducerEntry) -> None:
        with self._lock:
            cache = self._produced.setdefault(model_name, {})
            cache[version] = entry
            while len(cache) > CACHE_VERSIONS:
                cache.pop(next(iter(cache)))

    def _entry(self, blob, state, piece_lengths) -> _ProducerEntry:
        """``blob`` as one immutable copy (none for ``bytes``) on its piece
        grid: the caller's, else the serializer's when possible, else the
        whole blob as one piece (still correct, coarser boundaries)."""
        blob = bytes(blob)
        if piece_lengths:
            return _ProducerEntry(blob, list(piece_lengths))
        if self.serializer is None or state is None:
            return _ProducerEntry(blob, [len(blob)])
        pieces = self.serializer.dump_chunks(state)
        return _ProducerEntry(blob, [memoryview(p).nbytes for p in pieces])

    def _index(self, entry: _ProducerEntry, digests=None) -> ChunkIndex:
        if entry.index is None:
            entry.index = ChunkIndex(
                entry.blob, self.config.chunk_bytes, entry.piece_lengths,
                digests=digests,
                # The serializer derives it from the header it wrote.
                crc=(
                    self.serializer.blob_crc(entry.blob)
                    if self.serializer is not None
                    else None
                ),
            )
        return entry.index

    def remember_saved(
        self, model_name: str, version: int, blob: bytes, state=None,
        piece_lengths: Optional[Sequence[int]] = None,
    ) -> None:
        """Retain a monolithic save for future diffs and fallbacks.

        Used when the wire decision was made elsewhere (e.g. a direct
        PFS save, which always ships monolithic): the version still
        enters the producer cache so later volatile-tier saves can diff
        against it and baseless consumers can re-fetch it.
        """
        if self.config.enabled:
            entry = self._entry(blob, state, piece_lengths)
            self._remember(model_name, version, entry)

    def encode_for_save(
        self,
        model_name: str,
        version: int,
        blob: bytes,
        state=None,
        piece_lengths: Optional[Sequence[int]] = None,
    ) -> Tuple[Optional[bytes], DeltaStats]:
        """Decide and encode the wire form for one save.

        Returns ``(frame, stats)``; ``frame=None`` means ship the
        monolithic ``blob`` (stats then records the monolithic bytes).
        Always retains ``blob`` for future diffs and for the consumer's
        missing-base fallback, even when the decision is monolithic.
        ``piece_lengths`` (when non-empty) is the serializer's piece grid,
        from the ``dump_chunks`` pass that produced ``blob``.  ``blob`` is
        that serializer's own output: its CRC comes from
        ``serializer.blob_crc``, which takes the header at its word (a
        header that lied would fail the consumer's out-CRC check).
        """
        mono = DeltaStats(
            mode="monolithic", bytes_total=len(blob), bytes_on_wire=len(blob)
        )
        if not self.config.enabled:
            return None, mono
        entry = self._entry(blob, state, piece_lengths)
        with self._lock:
            held = self._held_version.get(model_name)
            base = (
                self._produced.get(model_name, {}).get(held)
                if held is not None
                else None
            )
        self._remember(model_name, version, entry)
        if base is None:
            # No base: a frame could only add overhead.
            return None, mono
        chunk_bytes = self.config.chunk_bytes
        blob = entry.blob
        ends = list(accumulate(entry.piece_lengths))
        spans = list(zip([0] + ends, ends))  # (start, end) of every piece
        carried = None
        if base.piece_lengths == entry.piece_lengths:
            # Same grid: an exact compare with the retained base blob says
            # which pieces changed, without hashing or parsing anything.
            old = memoryview(base.blob)
            same = [blob.startswith(old[a:b], a) for a, b in spans]
            changed = sum(b - a for (a, b), keep in zip(spans, same) if not keep)
            if changed >= FULL_CHANGE_THRESHOLD * len(blob):
                # (Almost) everything changed: the recipe cannot win, so
                # nothing is hashed.
                return None, mono
            # Unchanged pieces take the base's digests for their chunk
            # range; only changed pieces are hashed.
            known = iter(self._index(base).digests)
            carried = []
            for (a, b), keep in zip(spans, same):
                of_piece = list(islice(known, -(-(b - a) // chunk_bytes)))
                carried += of_piece if keep else [None] * len(of_piece)
        index = self._index(entry, carried)
        mv = memoryview(blob)
        frame, stats = encode_frame(
            self._index(base), [mv[a:b] for a, b in spans], chunk_bytes,
            digests=index.digests, out_crc=index.crc,
        )
        if len(frame) >= len(blob):
            # The delta would be larger (a fully-changed payload on a
            # shifted grid): monolithic fallback, by construction never
            # worse.
            return None, mono
        return frame, stats

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def decode_for_load(self, model_name: str, frame) -> bytes:
        """Reconstruct a fetched frame against the held base."""
        with self._lock:
            base = self._held_blob.get(model_name)
        decoded = _reconstruct(frame, base)
        with self._lock:
            self._decoded[model_name] = decoded
        return decoded.blob

    def decoded_crc(self, model_name: str, blob) -> Optional[int]:
        """The verified out-CRC of ``blob`` when it is the very object
        :meth:`decode_for_load` last returned for the model (the identity
        rule :meth:`register_loaded` follows), else None."""
        with self._lock:
            decoded = self._decoded.get(model_name)
        if decoded is None or decoded.blob is not blob:
            return None
        return decoded.crc

    def register_loaded(self, model_name: str, version: int, blob: bytes) -> None:
        """A consumer finished loading ``version``: new negotiation base.

        The very object :meth:`decode_for_load` last returned brings its
        verified out-CRC and chunk digests along; of any other blob
        nothing is known yet.
        """
        with self._lock:
            held = self._decoded.pop(model_name, None)
            if held is None or held.blob is not blob:
                held = _HeldBase(bytes(blob))
            self._held_blob[model_name] = held
            self._held_version[model_name] = version

    def held_version(self, model_name: str) -> Optional[int]:
        with self._lock:
            return self._held_version.get(model_name)

    def forget_held(self, model_name: Optional[str] = None) -> None:
        """Drop the consumer-side base(s) (a restarted consumer)."""
        with self._lock:
            for table in (self._held_blob, self._held_version, self._decoded):
                if model_name is None:
                    table.clear()
                else:
                    table.pop(model_name, None)

    def full_blob(self, model_name: str, version: int) -> Optional[bytes]:
        """The producer-retained monolithic blob (fallback source)."""
        with self._lock:
            entry = self._produced.get(model_name, {}).get(version)
            return entry.blob if entry is not None else None
