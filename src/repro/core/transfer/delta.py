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
   load) and diffs the new save against that base, piece by piece: each
   live serializer piece is compared exactly with the base's retained
   piece.  A near-fully-changed save short-circuits straight to the
   monolithic path before any digest is computed; otherwise an unchanged
   piece is the base's own (bytes, CRC and chunk digests) and only a
   changed piece is copied, CRC'd and hashed.
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

Work follows what changed, and every byte is hashed once per side:
digests and CRCs that one step computed or verified travel with the
bytes as data (the retained pieces and ``ChunkIndex`` on the producer,
the held base's CRC and ``(offset, length) -> digest`` table on the
consumer) instead of being recomputed by the next step.  CRC-32 is
linear, so the producer folds the v2 header's payload CRC and the
frame's out-CRC from per-piece CRCs with
:func:`~repro.dnn.serialization.crc32_combine`, and the monolithic blob
is joined only when it ships whole; the consumer derives its inner v2
check from the verified out-CRC (:meth:`DeltaManager.decoded_crc` ->
``loads(..., blob_crc=)``).  A bare :func:`encode_frame` /
:func:`decode_frame` call carries nothing and hashes everything;
``docs/architecture.md`` tabulates who hashes and who copies what.

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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import DeltaBaseError, IntegrityError, StorageError
from repro.dnn.serialization import ViperSerializer, crc32_combine
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

    Built bare (``ChunkIndex(blob, chunk_bytes, piece_lengths)``) it hashes
    every chunk and CRCs the blob; :meth:`of_digests` builds one from what
    an earlier step already computed, without the blob.
    """

    def __init__(self, blob: bytes, chunk_bytes: int,
                 piece_lengths: Optional[Iterable[int]] = None):
        mv = memoryview(blob)
        lengths = [len(mv)] if piece_lengths is None else list(piece_lengths)
        bounds = chunk_bounds(lengths, chunk_bytes)
        self._fill(
            zlib.crc32(mv), bounds,
            [_digest(mv[offset : offset + length]) for offset, length in bounds],
        )

    @classmethod
    def of_digests(cls, crc: int, bounds: Sequence[Tuple[int, int]],
                   digests: Sequence[bytes]) -> "ChunkIndex":
        """The index of a blob with CRC-32 ``crc`` whose :func:`chunk_bounds`
        grid ``bounds`` hashes to ``digests``, in grid order."""
        index = cls.__new__(cls)
        index._fill(crc, bounds, digests)
        return index

    def _fill(self, crc: int, bounds: Sequence[Tuple[int, int]],
              digests: Sequence[bytes]) -> None:
        self.crc = crc
        self.nbytes = sum(length for _, length in bounds)
        self._by_digest: Dict[bytes, Tuple[int, int]] = {}
        for d, bound in zip(digests, bounds):
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
    chunks: List[memoryview] = []
    for piece in pieces:
        mv = memoryview(piece).cast("B")
        chunks += [
            mv[start : start + n] for start, n in chunk_bounds([len(mv)], chunk_bytes)
        ]
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
        DELTA_MAGIC, _FRAME_VERSION, base.nbytes, base.crc,
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


class _Piece:
    """One serializer piece a producer entry retains: ``length`` immutable
    bytes at ``offset`` of ``buf`` (the piece's own copy, or the joined
    blob of a version that shipped whole), their CRC-32 and, once hashed,
    the digests of the piece's chunks.  Entries share the object for a
    piece that did not change, so a digest computed once serves all."""

    __slots__ = ("buf", "offset", "length", "crc", "digests")

    def __init__(self, buf: bytes, offset: int, length: int, crc: int):
        self.buf = buf
        self.offset = offset
        self.length = length
        self.crc = crc
        self.digests: Optional[List[bytes]] = None

    def view(self) -> memoryview:
        return memoryview(self.buf)[self.offset : self.offset + self.length]

    def equals(self, live) -> bool:
        """Exact compare with a live piece: ``memcmp``, nothing hashed."""
        return len(live) == self.length and self.buf.startswith(live, self.offset)

    def hashed(self, chunk_bytes: int) -> List[bytes]:
        if self.digests is None:
            view = self.view()
            self.digests = [
                _digest(view[start : start + n])
                for start, n in chunk_bounds([self.length], chunk_bytes)
            ]
        return self.digests


class _ProducerEntry:
    """Producer-retained state of one saved version: its pieces (the v2
    header first), the whole-blob CRC-32, and the blob itself, which is
    joined only when something has to ship or store it whole."""

    def __init__(self, pieces: List[_Piece], crc: int, blob: Optional[bytes] = None):
        self.pieces = pieces
        self.crc = crc
        self._blob = blob
        #: Built the first time a later save diffs against this version.
        self.index: Optional[ChunkIndex] = None

    @property
    def piece_lengths(self) -> List[int]:
        return [p.length for p in self.pieces]

    def blob(self) -> bytes:
        """The monolithic blob, joined on first use and kept."""
        if self._blob is None:
            self._blob = b"".join([p.view() for p in self.pieces])
        return self._blob


class DeltaManager:
    """Negotiation state for the delta wire path (both ends).

    Producer side: retains the last :data:`CACHE_VERSIONS` saved versions
    (as serializer pieces, plus chunk indexes) per model, knows which
    version the consumer holds, and decides delta vs monolithic per save.
    Consumer side: retains the reconstructed blob of the last successful
    load per model, which is the base the next frame reuses against.  In
    this reproduction both ends live in one process, but the two maps are
    kept strictly separate so losing one side (a restarted consumer)
    exercises the real fallback.
    """

    def __init__(self, config: Optional[DeltaConfig] = None, *, serializer=None):
        self.config = config if config is not None else DeltaConfig()
        self.serializer = serializer if serializer is not None else ViperSerializer()
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

    def _index(self, entry: _ProducerEntry) -> ChunkIndex:
        if entry.index is None:
            chunk_bytes = self.config.chunk_bytes
            entry.index = ChunkIndex.of_digests(
                entry.crc,
                chunk_bounds(entry.piece_lengths, chunk_bytes),
                [d for p in entry.pieces for d in p.hashed(chunk_bytes)],
            )
        return entry.index

    def _whole(self, header: bytes, live: Sequence, crcs: Sequence[int],
               crc: int) -> _ProducerEntry:
        """An entry that ships whole: the header and the live pieces joined
        once (the only copy), its pieces slices of that blob."""
        blob = b"".join([header, *live])
        pieces, offset = [], 0
        for n, piece_crc in zip([len(header), *map(len, live)], crcs):
            pieces.append(_Piece(blob, offset, n, piece_crc))
            offset += n
        return _ProducerEntry(pieces, crc, blob)

    def remember_saved(self, model_name: str, version: int, state) -> _ProducerEntry:
        """Serialize ``state`` whole and retain it for future diffs and
        fallbacks; returns the entry (``entry.blob()`` is the blob).

        Used when the wire decision was made elsewhere (e.g. a direct
        PFS save, which always ships monolithic): the version still
        enters the producer cache so later volatile-tier saves can diff
        against it and baseless consumers can re-fetch it.
        """
        _frame, _stats, entry = self._encode(state, None)
        self._remember(model_name, version, entry)
        return entry

    def encode_for_save(
        self, model_name: str, version: int, state
    ) -> Tuple[Optional[bytes], DeltaStats, _ProducerEntry]:
        """Serialize ``state`` and decide and encode its wire form.

        Returns ``(frame, stats, entry)``; ``frame=None`` means ship the
        monolithic ``entry.blob()`` (stats then records the monolithic
        bytes).  The entry is retained for future diffs and for the
        consumer's missing-base fallback, even when the decision is
        monolithic.  Work follows what changed: each live serializer piece
        is compared (exactly) with the held base's; an unchanged piece
        carries its bytes, CRC and chunk digests over from the base, a
        changed one is copied once, CRC'd and hashed, and the v2 header's
        payload CRC is folded from the per-piece CRCs.  The blob is joined
        only when it ships whole.  A disabled manager serializes ``state``
        whole and retains nothing.
        """
        if not self.config.enabled:
            return self._encode(state, None)
        with self._lock:
            held = self._held_version.get(model_name)
            base = (
                self._produced.get(model_name, {}).get(held)
                if held is not None
                else None
            )
        frame, stats, entry = self._encode(state, base)
        self._remember(model_name, version, entry)
        return frame, stats, entry

    def _encode(
        self, state, base: Optional[_ProducerEntry]
    ) -> Tuple[Optional[bytes], DeltaStats, _ProducerEntry]:
        ser = self.serializer
        live = ser.payload_pieces(state)
        # Same grid: the live pieces line up with the base's payload pieces
        # (the header is always piece 0), so each can be compared exactly.
        same = (
            base is not None
            and [len(p) for p in live] == base.piece_lengths[1:]
        )
        kept: List[Optional[_Piece]] = (
            [old if old.equals(p) else None for old, p in zip(base.pieces[1:], live)]
            if same
            else [None] * len(live)
        )
        crcs = [
            old.crc if old is not None else zlib.crc32(p)
            for old, p in zip(kept, live)
        ]
        payload_crc, payload_len = 0, 0
        for p, piece_crc in zip(live, crcs):
            payload_crc = crc32_combine(payload_crc, piece_crc, len(p))
            payload_len += len(p)
        header = ser.header_for(payload_crc)
        header_crc = zlib.crc32(header)
        crc = crc32_combine(header_crc, payload_crc, payload_len)
        nbytes = len(header) + payload_len
        mono = DeltaStats(mode="monolithic", bytes_total=nbytes, bytes_on_wire=nbytes)
        changed = sum(len(p) for old, p in zip(kept, live) if old is None)
        if same and base.pieces[0].equals(header):
            head = base.pieces[0]
        else:
            head = _Piece(header, 0, len(header), header_crc)
            changed += len(header)
        if base is None or (same and changed >= FULL_CHANGE_THRESHOLD * nbytes):
            # No base, or (almost) everything changed so the recipe cannot
            # win: ship whole, and hash nothing.
            return None, mono, self._whole(header, live, [header_crc, *crcs], crc)
        # Changed pieces are copied once; unchanged ones are the base's.
        entry = _ProducerEntry(
            [head] + [
                old if old is not None else _Piece(bytes(p), 0, len(p), piece_crc)
                for old, p, piece_crc in zip(kept, live, crcs)
            ],
            crc,
        )
        chunk_bytes = self.config.chunk_bytes
        frame, stats = encode_frame(
            self._index(base), [p.view() for p in entry.pieces], chunk_bytes,
            digests=[d for p in entry.pieces for d in p.hashed(chunk_bytes)],
            out_crc=crc,
        )
        if len(frame) >= nbytes:
            # The delta would be larger (a fully-changed payload on a
            # shifted grid): monolithic fallback, by construction never
            # worse.
            return None, mono, entry
        return frame, stats, entry

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
        """The producer-retained monolithic blob (fallback source), joined
        from the retained pieces on first use."""
        with self._lock:
            entry = self._produced.get(model_name, {}).get(version)
        return entry.blob() if entry is not None else None
