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
   produces bit-identical chunks at the same offsets between versions
   even when a neighbouring tensor changed.
2. **Negotiation** — the producer-side :class:`DeltaManager` knows which
   version each consumer last loaded (registered on every successful
   load) and diffs the new save against that base, piece by piece: each
   live serializer piece is compared exactly with the base's retained
   piece.  An unchanged piece is the base's own (bytes and CRC); only a
   changed piece is compared chunk by chunk with the base piece at the
   same offset, and copied and CRC'd.
3. **Recipe** — the producer ships a *delta frame* (wire format v4): an
   ordered list of ``reuse(length)`` / ``literal(length)`` ops plus the
   base's and the reconstruction target's length and CRC-32.  Reuse is
   positional: it copies the base bytes at the current write offset, so
   no op carries an offset or a digest.  Literals ship raw.  No codec
   pays here — zlib trims a 10 %-changed frame by ~7 % at a third of the
   encode throughput, and every link a frame crosses runs at >= 1 GB/s
   (``docs/architecture.md``).
4. **Reconstruction** — the consumer holds its base as an immutable
   :class:`~repro.dnn.serialization.Segments` table (read-only views
   over ``bytes``, each with its CRC-32).  It checks the base against
   the frame's base ``(length, CRC-32)``, replays the recipe with every
   structural bounds check, and builds the reconstruction as a new
   table: a reuse run is the base's own segments, a literal run is
   copied once into a segment of its own.  The out-CRC is folded from
   the segments' CRCs and compared before anything is committed —
   *then* the inner v2 header checksum is compared again inside
   ``Serializer.loads``, which reads the table in place, before the
   double-buffer swap.  No full blob is joined.  Corruption at any
   level raises :class:`~repro.errors.IntegrityError`; a missing or
   mismatched base raises :class:`DeltaBaseError` so the handler can
   fall back to the monolithic blob instead of erroring the update wave.

CRC-32 is the one checksum, and no byte is CRC'd twice on either side:
CRCs that one step computed or verified travel with the bytes as data
(the retained pieces on the producer, the held base's segments on the
consumer) instead of being recomputed by the next step.  CRC-32 is
linear, so the producer folds the v2 header's payload CRC and the
frame's out-CRC from per-piece CRCs with
:func:`~repro.dnn.serialization.crc32_combine`, and the monolithic blob
is joined only when it ships whole.  The consumer folds the out-CRC
from its segments' CRCs, so a warm decode reads only the literals (and
a base segment only where a run boundary cuts it); a base loaded whole
is read once, by the first frame against it.  The inner v2 check
derives from the verified out-CRC the reconstruction carries.  A bare
:func:`encode_frame` / :func:`decode_frame` call carries nothing and
CRCs everything; ``docs/architecture.md`` tabulates who checks and who
copies what.

Fallback rules (all decided per save/load, never per deployment):

- no base version registered for the consumer -> monolithic;
- the piece grid (piece count or a piece length) differs from the
  base's -> monolithic;
- the frame would not be smaller than the full blob -> monolithic,
  decided from the compare results before any piece is copied;
- the consumer lost its base, or reconstruction failed verification ->
  the handler re-fetches the producer-retained monolithic blob.
"""

from __future__ import annotations

import struct
import threading
import zlib
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import DeltaBaseError, IntegrityError, StorageError
from repro.dnn.serialization import Segments, ViperSerializer, crc32_combine
from repro.substrates.cost import KB

__all__ = [
    "DeltaConfig",
    "DeltaBaseError",
    "DeltaStats",
    "DELTA_MAGIC",
    "CACHE_VERSIONS",
    "chunk_bounds",
    "encode_frame",
    "decode_frame",
    "is_delta_frame",
    "frame_info",
    "DeltaManager",
]

DELTA_MAGIC = b"VPRD"
#: Wire format v4: v1 was the raw packed-tensor stream, v2 added the
#: CRC-32 header (both in dnn/serialization.py); v3 was a digest-addressed
#: delta frame; v4 is this positional delta frame wrapping a v2 blob as a
#: recipe against a consumer-held base.
_FRAME_VERSION = 4
_OP_REUSE = 0
_OP_LITERAL = 1
#: Frame header: magic | u32 version | u64 base_len | u32 base_crc
#: | u64 out_len | u32 out_crc | u32 nops
_HEADER = struct.Struct("<4sIQIQII")
#: One op: tag | u64 length.  A literal's raw bytes follow it.
_OP = struct.Struct("<BQ")

#: Default reuse granularity.  Small enough that a 10%-row update to a
#: wide layer re-ships ~10% of it, large enough that the per-chunk
#: recipe overhead (9 B/op) stays under 0.1% of moved bytes.  Distinct
#: from the pipeline's 256 MB *lane* chunks: delta chunks bound reuse
#: granularity, lane chunks bound stage overlap.
DEFAULT_DELTA_CHUNK_BYTES = 64 * KB
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
    pieces did — an unchanged tensor's chunks sit at the same offsets as
    in the base, which is what positional reuse needs.
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


def _chunks(pieces: Iterable, chunk_bytes: int) -> List[memoryview]:
    """The :func:`chunk_bounds` grid over ``pieces`` as zero-copy views."""
    chunks: List[memoryview] = []
    for piece in pieces:
        mv = memoryview(piece).cast("B")
        chunks += [
            mv[start : start + n] for start, n in chunk_bounds([len(mv)], chunk_bytes)
        ]
    return chunks


class _Piece:
    """One serializer piece a producer entry retains: ``length`` immutable
    bytes at ``offset`` of ``buf`` (the piece's own copy, or the joined
    blob of a version that shipped whole) and their CRC-32 (None for a
    bare base cut by :func:`encode_frame`).  Entries share the object for
    a piece that did not change."""

    __slots__ = ("buf", "offset", "length", "crc")

    def __init__(self, buf: bytes, offset: int, length: int, crc: Optional[int]):
        self.buf = buf
        self.offset = offset
        self.length = length
        self.crc = crc

    def view(self) -> memoryview:
        return memoryview(self.buf)[self.offset : self.offset + self.length]

    def matches(self, live, start: int = 0) -> bool:
        """Exact compare of ``live`` with this piece's bytes from
        ``start`` on: a ``memcmp``, nothing hashed."""
        return self.buf.startswith(live, self.offset + start)

    def equals(self, live) -> bool:
        """Exact compare with a whole live piece."""
        return len(live) == self.length and self.matches(live)


def _reuse_ops(
    base: Sequence[_Piece], pieces: Sequence, unchanged: Sequence[bool],
    chunk_bytes: int,
) -> List[Tuple[int, bool]]:
    """One ``(length, reused)`` per chunk of ``pieces`` on the
    :func:`chunk_bounds` grid: reused where the chunk equals the bytes of
    the base piece at the same index and offset.  A piece flagged
    ``unchanged`` was already proven equal whole, so its chunks are all
    reuse without a second compare."""
    ops: List[Tuple[int, bool]] = []
    for old, piece, same in zip(base, pieces, unchanged):
        view = memoryview(piece).cast("B")
        ops += [
            (n, same or old.matches(view[s : s + n], s))
            for s, n in chunk_bounds([len(view)], chunk_bytes)
        ]
    return ops


def _frame(
    base_len: int, base_crc: int, out_crc: int,
    chunks: Sequence[memoryview], reused: Sequence[bool],
) -> Tuple[bytes, DeltaStats]:
    """The v4 frame whose ops are ``chunks`` in order, each a reuse op
    where ``reused`` says so and a literal otherwise."""
    parts: List = [b""]  # placeholder for the header
    out_len = bytes_reused = 0
    for chunk, hit in zip(chunks, reused):
        n = len(chunk)
        out_len += n
        if hit:
            parts.append(_OP.pack(_OP_REUSE, n))
            bytes_reused += n
        else:
            # The raw view ships as is (no copy before the join).
            parts += (_OP.pack(_OP_LITERAL, n), chunk)
    parts[0] = _HEADER.pack(
        DELTA_MAGIC, _FRAME_VERSION, base_len, base_crc,
        out_len, out_crc, len(chunks),
    )
    frame = b"".join(parts)
    stats = DeltaStats(
        mode="delta",
        bytes_total=out_len,
        bytes_on_wire=len(frame),
        bytes_reused=bytes_reused,
        chunks_total=len(chunks),
        chunks_reused=sum(reused),
    )
    return frame, stats


def encode_frame(
    base_blob: bytes, pieces: Iterable, chunk_bytes: int
) -> Tuple[bytes, DeltaStats]:
    """Encode a piece stream as a v4 delta frame against ``base_blob``.

    ``pieces`` is the serializer's iovec (``dump_chunks`` output), cut
    along the :func:`chunk_bounds` grid: a chunk equal to the base bytes
    at its own offset becomes a reuse op, any other a literal — the same
    compare :class:`DeltaManager` runs on a save's changed pieces.  Both
    CRCs are computed here.  Returns ``(frame, stats)``; the caller
    compares ``len(frame)`` against the full blob and falls back to
    monolithic when the recipe does not win.
    """
    views = [memoryview(p).cast("B") for p in pieces]
    base, offset, out_crc = [], 0, 0
    for view in views:
        base.append(_Piece(base_blob, offset, len(view), None))
        offset += len(view)
        out_crc = zlib.crc32(view, out_crc)
    ops = _reuse_ops(base, views, [False] * len(views), chunk_bytes)
    return _frame(
        len(base_blob), zlib.crc32(base_blob), out_crc,
        _chunks(views, chunk_bytes), [hit for _, hit in ops],
    )


def is_delta_frame(blob) -> bool:
    """True when ``blob`` is a delta frame (by magic)."""
    return bytes(memoryview(blob)[:4]) == DELTA_MAGIC


def frame_info(frame) -> Dict[str, int]:
    """Header fields of a v4 frame (without decoding the ops).

    A blob without the magic is not a frame (:class:`StorageError`); one
    with the magic but a short header or another version (a v3 frame
    included) is a corrupt frame (:class:`~repro.errors.IntegrityError`),
    so a retry re-fetches it and the load counts as a corruption.
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


def decode_frame(frame, base_blob: Optional[bytes]) -> bytes:
    """Reconstruct the full v2 blob from a frame plus the held base.

    The held base must match the frame's base ``(length, CRC-32)``, else
    :class:`DeltaBaseError` (fall back, don't fail).  Every op is bounds
    checked, the ops must end exactly where the frame does, and the whole
    reconstruction must match the frame's CRC-32 — any mismatch raises
    :class:`~repro.errors.IntegrityError` before a single byte can reach
    the double buffer.  Called bare like this, nothing is known about
    ``base_blob``: it is CRC'd whole, and the result is joined.
    """
    base = Segments.of(base_blob) if base_blob is not None else None
    parts, _, _, _ = _reconstruct(frame, base)
    # The one copy of every byte: literals straight out of the frame.
    return b"".join(view for part in parts for view in _views(part))


def _views(part) -> Sequence[memoryview]:
    """The views a reconstruction part is made of (see :func:`_reconstruct`)."""
    return part if isinstance(part, list) else (part,)


def _fold(lengths: Iterable[int], crcs: Sequence[int]) -> int:
    """CRC-32 of consecutive pieces from their lengths and own CRCs."""
    crc = 0
    for length, piece_crc in zip(lengths, crcs):
        crc = crc32_combine(crc, piece_crc, length)
    return crc


def _cut(base: Segments, cuts: Sequence[int]) -> Segments:
    """``base`` split at the sorted offsets ``cuts``, every piece CRC'd:
    one read of every byte, and the whole CRC folded from the pieces."""
    views: List[memoryview] = []
    k = 0
    for start, view in zip(base.starts, base.views):
        end, lo = start + len(view), 0
        while k < len(cuts) and cuts[k] <= start:
            k += 1
        while k < len(cuts) and cuts[k] < end:
            views.append(view[lo : cuts[k] - start])
            lo = cuts[k] - start
            k += 1
        views.append(view[lo:])
    crcs = [zlib.crc32(view) for view in views]
    return Segments(views, crcs, _fold(map(len, views), crcs))


def _reconstruct(
    frame, base: Optional[Segments]
) -> Tuple[list, List[int], int, Optional[Segments]]:
    """:func:`decode_frame` against a held base, copying nothing.

    Returns ``(parts, crcs, out_crc, learned)``: the reconstruction in
    write order, where a part is a base segment (a view) or a literal run
    (a list of views over ``frame``), ``crcs[i]`` the CRC-32 of part
    ``i``, the verified out-CRC folded from them, and — when ``base``
    carried no CRC table — the base cut along this frame's runs with the
    CRCs read on the way (else None).  The caller makes the one copy of
    the literals: the bare decoder into its joined blob, the held table
    into a segment per run, so neither keeps the frame alive.  Bytes
    read: the literals, a base segment only where a run boundary cuts
    it, and a base without a CRC table once, whole, to check it against
    the frame's base CRC.  Nothing is committed here, so a failed decode
    leaves no trace.
    """
    info = frame_info(frame)
    mv = memoryview(frame)
    held = 0
    if info["base_len"]:
        if base is None:
            raise DeltaBaseError(
                f"delta frame needs a {info['base_len']}-byte base blob "
                f"but none is held"
            )
        if len(base) != info["base_len"] or base.crc not in (None, info["base_crc"]):
            raise DeltaBaseError(
                f"held base does not match the frame's negotiated base "
                f"(len {len(base)} vs {info['base_len']})"
            )
        held = len(base)

    # [start, end, literal views], or [start, end, None] for a reuse run:
    # runs of same-kind ops, in write order.  Reuse is positional.
    runs: List[list] = []
    pos = _HEADER.size
    write = 0
    for _ in range(info["nops"]):
        if pos + _OP.size > len(mv):
            raise IntegrityError("truncated delta frame (ops)")
        tag, size = _OP.unpack_from(mv, pos)
        pos += _OP.size
        literal = None
        if tag == _OP_REUSE:
            if write + size > held:
                raise DeltaBaseError(
                    f"reuse op [{write}:{write + size}] exceeds the "
                    f"held base ({held} bytes)"
                )
        elif tag == _OP_LITERAL:
            if pos + size > len(mv):
                raise IntegrityError("truncated delta frame (literal)")
            literal = mv[pos : pos + size]
            pos += size
        else:
            raise IntegrityError(f"unknown delta op tag {tag}")
        if write + size > info["out_len"]:
            raise IntegrityError("delta recipe overflows the declared length")
        if size and runs and (runs[-1][2] is None) == (literal is None):
            runs[-1][1] += size
            if literal is not None:
                runs[-1][2].append(literal)
        elif size:
            runs.append([write, write + size, None if literal is None else [literal]])
        write += size
    if write != info["out_len"]:
        raise IntegrityError(
            f"delta recipe reconstructed {write} bytes, header says "
            f"{info['out_len']}"
        )
    if pos != len(mv):
        raise IntegrityError(
            f"{len(mv) - pos} bytes follow the last of {info['nops']} delta ops"
        )

    learned = None
    if held and base.crcs is None:
        cuts = sorted({edge for run in runs for edge in run[:2] if 0 < edge < held})
        base = learned = _cut(base, cuts)
        if base.crc != info["base_crc"]:
            raise DeltaBaseError(
                f"held base does not match the frame's negotiated base "
                f"(CRC {base.crc:#010x} vs {info['base_crc']:#010x})"
            )
    parts: list = []
    crcs: List[int] = []
    for start, end, literals in runs:
        if literals is not None:
            crc = 0
            for literal in literals:
                crc = zlib.crc32(literal, crc)
            parts.append(literals)
            crcs.append(crc)
            continue
        i = bisect_right(base.starts, start) - 1
        while i < len(base.views) and base.starts[i] < end:
            seg_start, view = base.starts[i], base.views[i]
            if start <= seg_start and seg_start + len(view) <= end:
                parts.append(view)
                crcs.append(base.crcs[i])
            else:  # the run boundary cuts this segment: read the part
                part = view[max(start - seg_start, 0) : end - seg_start]
                parts.append(part)
                crcs.append(zlib.crc32(part))
            i += 1
    actual = _fold((sum(map(len, _views(part))) for part in parts), crcs)
    if actual != info["out_crc"]:
        raise IntegrityError(
            f"reconstructed blob CRC mismatch: frame says "
            f"{info['out_crc']:#010x}, got {actual:#010x}",
            expected=info["out_crc"],
            actual=actual,
        )
    return parts, crcs, actual, learned


class _ProducerEntry:
    """Producer-retained state of one saved version: its pieces (the v2
    header first), the whole-blob CRC-32, and the blob itself, which is
    joined only when something has to ship or store it whole."""

    def __init__(self, pieces: List[_Piece], crc: int, blob: Optional[bytes] = None):
        self.pieces = pieces
        self.crc = crc
        self._blob = blob

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
    (as serializer pieces) per model, knows which version the consumer
    holds, and decides delta vs monolithic per save.  Consumer side:
    retains what the last successful load per model loaded, as an
    immutable :class:`~repro.dnn.serialization.Segments` table, which is
    the base the next frame reuses against.  In this
    reproduction both ends live in one process, but the two maps are
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
        self._held_base: Dict[str, Segments] = {}

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
        carries its bytes and CRC over from the base and becomes reuse
        ops, a changed one is compared chunk by chunk with the base piece
        at the same offset, then copied once and CRC'd, and the v2
        header's payload CRC is folded from the per-piece CRCs.  The blob
        is joined only when it ships whole.  A disabled manager
        serializes ``state`` whole and retains nothing.
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
        if not same or len(header) != base.pieces[0].length:
            # No base, or the grid moved so nothing sits at its old offset.
            return None, mono, self._whole(header, live, [header_crc, *crcs], crc)
        head = base.pieces[0] if base.pieces[0].equals(header) else None
        # An unchanged piece is all reuse, a changed one is compared chunk
        # by chunk at the same offset.
        chunk_bytes = self.config.chunk_bytes
        ops = _reuse_ops(
            base.pieces, [header, *live],
            [old is not None for old in [head, *kept]], chunk_bytes,
        )
        literal = sum(n for n, hit in ops if not hit)
        if _HEADER.size + len(ops) * _OP.size + literal >= nbytes:
            # The frame would not be smaller: ship whole, copy nothing first.
            return None, mono, self._whole(header, live, [header_crc, *crcs], crc)
        # Changed pieces are copied once; unchanged ones are the base's.
        if head is None:
            head = _Piece(header, 0, len(header), header_crc)
        entry = _ProducerEntry(
            [head] + [
                old if old is not None else _Piece(bytes(p), 0, len(p), piece_crc)
                for old, p, piece_crc in zip(kept, live, crcs)
            ],
            crc,
        )
        frame, stats = _frame(
            nbytes, base.crc, crc,  # same grid: the base is nbytes long too
            _chunks([p.view() for p in entry.pieces], chunk_bytes),
            [hit for _, hit in ops],
        )
        return frame, stats, entry

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def decode_for_load(self, model_name: str, frame) -> Segments:
        """Reconstruct a fetched frame against the held base, as a
        :class:`~repro.dnn.serialization.Segments` table that
        ``Serializer.loads`` reads and :meth:`register_loaded` adopts.

        A held base loaded whole is read by the first frame against it
        only: once that decode has verified, the base is held cut along
        the frame's runs with the CRCs read on the way.
        """
        with self._lock:
            base = self._held_base.get(model_name)
        parts, crcs, crc, learned = _reconstruct(frame, base)
        # A literal run is copied once into a segment of its own, so the
        # table the consumer holds keeps no frame alive.
        out = Segments(
            [
                memoryview(b"".join(part)) if isinstance(part, list) else part
                for part in parts
            ],
            crcs, crc,
        )
        if learned is not None:
            with self._lock:
                if self._held_base.get(model_name) is base:
                    self._held_base[model_name] = learned
        return out

    def register_loaded(self, model_name: str, version: int, blob) -> None:
        """A consumer finished loading ``version``: new negotiation base.

        A reconstruction :meth:`decode_for_load` returned is adopted as
        is, with the CRCs its decode verified; any other blob becomes a
        one-segment base of which nothing is known yet.
        """
        if not (isinstance(blob, Segments) and blob.crcs is not None):
            blob = Segments.of(bytes(blob))
        with self._lock:
            self._held_base[model_name] = blob
            self._held_version[model_name] = version

    def held_version(self, model_name: str) -> Optional[int]:
        with self._lock:
            return self._held_version.get(model_name)

    def forget_held(self, model_name: Optional[str] = None) -> None:
        """Drop the consumer-side base(s) (a restarted consumer)."""
        with self._lock:
            for table in (self._held_base, self._held_version):
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
