"""Checkpoint serializers: Viper's compact format and an h5py-like baseline.

The paper's Figure 8 compares ``h5py`` (the baseline every CANDLE app uses)
against Viper's own format, noting that Viper "only writes the model weights
and closely related metadata into the file, avoiding some unnecessary
metadata added by h5py".  We reproduce both:

- :class:`ViperSerializer` — a tight binary layout: magic, version, tensor
  count, then per tensor ``name | dtype | shape | raw bytes``.
- :class:`H5LikeSerializer` — the same payload plus the structural overhead
  an HDF5 file carries: a superblock, per-dataset object headers and
  attribute blocks, and chunk padding.  The overhead constants are small
  but per-tensor, which is exactly why many-tensor models (PtychoNN) pay
  more on the file path.

Each serializer also exposes a *timing* surface (``fixed_overhead`` /
``per_tensor_overhead``) the transfer engine charges on serialize and
deserialize; the h5py-like baseline is slower per tensor.

Both serializers additionally expose an *iovec* surface for the save
path (:func:`~repro.core.transfer.pipeline.serialize_pipelined` and the
delta encoder in :mod:`repro.core.transfer.delta`):

- ``dump_chunks`` yields the serialized stream as zero-copy pieces —
  small header ``bytes`` plus ``memoryview`` s over the live tensors —
  avoiding the per-tensor ``tobytes`` copy and the monolithic join;
- ``payload_pieces`` / ``header_for`` split that stream at its checksum:
  the pieces after the CRC-bearing header, with no CRC pass, and the
  header for a payload CRC the caller computed (or carried) itself;
- ``loads(..., copy=False)`` returns read-only arrays aliasing the input
  buffer: a zero-copy load for consumers that only read the weights.

``loads`` also takes a :class:`Segments` table — the delta consumer's
reconstruction, held as the base bytes it reuses plus the literals it
received instead of one joined blob.  A tensor inside one segment is
read in place; only a tensor that spans segments is joined.

CRC-32 is linear, so a CRC computed over some bytes never has to be
computed again over a whole that contains them: :func:`crc32_combine`
joins two CRCs, which lets the delta path fold a whole-blob CRC from
per-segment CRCs and ``loads`` derive the payload CRC from the whole
CRC a :class:`Segments` table carries instead of re-reading every byte.
"""

from __future__ import annotations

import math
import struct
import zlib
from bisect import bisect_right
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import IntegrityError, StorageError

__all__ = [
    "Serializer",
    "ViperSerializer",
    "H5LikeSerializer",
    "Segments",
    "crc32_combine",
    "state_dict_nbytes",
]

_VIPER_MAGIC = b"VIPR"
_H5_MAGIC = b"\x89HDF"
# Version 2 carries a CRC-32 of the packed-tensor payload in the header:
#   VIPR | <I version> | <I crc32> | payload
# It is the only version that loads: the checksum-free version 1 is
# refused like any unknown version.
_FORMAT_VERSION = 2
_V2_PAYLOAD_OFFSET = 12
_U8, _U16, _U32, _U64 = (struct.Struct(f) for f in ("<B", "<H", "<I", "<Q"))


def state_dict_nbytes(state: Dict[str, np.ndarray]) -> int:
    """Raw payload size of a state dict in bytes."""
    return sum(int(t.nbytes) for t in state.values())


# CRC-32 arithmetic over GF(2) polynomials in zlib's reflected bit order
# (zlib's ``multmodp`` / ``x2nmodp``): the stdlib ``zlib`` module does not
# expose ``crc32_combine``.
_CRC32_POLY = 0xEDB88320


def _multmodp(a: int, b: int) -> int:
    """``a(x) * b(x)`` modulo the CRC-32 polynomial; ``a`` must be nonzero."""
    m = 1 << 31
    p = 0
    while True:
        if a & m:
            p ^= b
            if (a & (m - 1)) == 0:
                return p
        m >>= 1
        b = (b >> 1) ^ _CRC32_POLY if b & 1 else b >> 1


#: ``x^(2^k)`` modulo the polynomial; the powers cycle with period 32.
_X2N = [1 << 30]
for _ in range(31):
    _X2N.append(_multmodp(_X2N[-1], _X2N[-1]))


@lru_cache(maxsize=1024)
def _x2nmodp(n: int, k: int) -> int:
    """``x^(n * 2^k)`` modulo the CRC-32 polynomial, memoised: a save
    combines the CRCs of the same piece lengths version after version."""
    p = 1 << 31  # x^0
    while n:
        if n & 1:
            p = _multmodp(_X2N[k & 31], p)
        n >>= 1
        k += 1
    return p


def crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """``zlib.crc32(a + b)`` from ``crc1 = crc32(a)``, ``crc2 = crc32(b)``
    and ``len2 = len(b)``, without reading a byte: one polynomial product
    once the shift for ``len2`` is memoised (O(log len2) the first time)."""
    return _multmodp(_x2nmodp(len2, 3), crc1) ^ (crc2 & 0xFFFFFFFF)


class Segments:
    """An immutable byte string held as a table of segments.

    Segment ``i`` is the view ``views[i]`` starting at ``starts[i]``, and
    ``crcs[i]`` is its CRC-32; ``crc`` is the CRC-32 of the whole.  Only
    the delta decoder builds a table that carries CRCs, and only over
    ``bytes`` it has verified, so its views are read-only; :meth:`of`
    wraps a plain buffer as one segment of which nothing is known
    (``crcs`` and ``crc`` are None).  No attribute can be reassigned.
    """

    __slots__ = ("views", "starts", "crcs", "crc", "nbytes")

    def __init__(
        self,
        views: Sequence[memoryview],
        crcs: Optional[Sequence[int]] = None,
        crc: Optional[int] = None,
    ):
        starts, offset = [], 0
        for view in views:
            starts.append(offset)
            offset += len(view)
        fields = dict(
            views=tuple(views), starts=tuple(starts),
            crcs=None if crcs is None else tuple(crcs), crc=crc, nbytes=offset,
        )
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"Segments are immutable: cannot set {name!r}")

    @classmethod
    def of(cls, blob) -> "Segments":
        """``blob`` itself when it is a table, else one segment over it."""
        if isinstance(blob, cls):
            return blob
        view = memoryview(blob).cast("B")
        return cls([view] if len(view) else [])

    def __len__(self) -> int:
        return self.nbytes

    def __bytes__(self) -> bytes:
        return b"".join(self.views)

    def slice(self, start: int, stop: int):
        """Bytes ``[start, stop)`` (within the table): a view into the
        segment holding them all, else a join of the segments they span."""
        if start >= stop:
            return b""
        i = bisect_right(self.starts, start) - 1
        base, view = self.starts[i], self.views[i]
        if stop - base <= len(view):
            return view[start - base : stop - base]
        parts = [view[start - base :]]
        while True:
            i += 1
            base, view = self.starts[i], self.views[i]
            if stop - base <= len(view):
                parts.append(view[: stop - base])
                return b"".join(parts)
            parts.append(view)

    def crc32_from(self, start: int) -> int:
        """CRC-32 of the bytes from ``start`` on, read segment by segment."""
        crc = 0
        for base, view in zip(self.starts, self.views):
            if base + len(view) > start:
                crc = zlib.crc32(view[max(start - base, 0) :], crc)
        return crc


class Serializer:
    """Contract: state dict <-> bytes, plus timing-model constants."""

    name = "serializer"
    # Seconds charged once per (de)serialize, modelling library setup cost.
    fixed_overhead = 0.0
    # Seconds charged per tensor, modelling per-dataset metadata handling.
    per_tensor_overhead = 0.0
    # Multiplier applied to the payload size on the wire / on disk.
    bytes_overhead_factor = 1.0

    def dumps(self, state: Dict[str, np.ndarray]) -> bytes:
        raise NotImplementedError

    def loads(self, blob, *, copy: bool = True) -> Dict[str, np.ndarray]:
        """Deserialize ``blob``: a bytes-like object or a :class:`Segments`
        table.  A checksumming format derives its check from the whole
        CRC a table carries instead of reading the payload again."""
        raise NotImplementedError

    def payload_pieces(self, state: Dict[str, np.ndarray]) -> List:
        """The stream that follows the CRC-bearing header, as zero-copy
        pieces (views over the live tensors), without a CRC pass.

        ``b"".join([header_for(crc), *payload_pieces(state)])`` equals
        ``dumps(state)`` when ``crc`` is the CRC-32 of the pieces.
        """
        raise NotImplementedError

    def header_for(self, payload_crc: int) -> bytes:
        """The bytes that precede :meth:`payload_pieces`, given the
        payload's CRC-32; empty for a format that carries no checksum."""
        return b""

    # -- iovec surface (save path) --------------------------------------
    def dump_chunks(self, state: Dict[str, np.ndarray]) -> Iterator:
        """Yield the serialized stream as zero-copy bytes-like pieces.

        ``b"".join(dump_chunks(state))`` equals ``dumps(state)`` exactly;
        tensor payloads are yielded as ``memoryview`` s over the live
        arrays, so no full-payload copy happens here.  Callers must not
        mutate ``state`` until the pieces have been consumed.
        """
        raise NotImplementedError

    # -- timing model ---------------------------------------------------
    def serialize_seconds(self, ntensors: int) -> float:
        return self.fixed_overhead + self.per_tensor_overhead * ntensors

    def deserialize_seconds(self, ntensors: int) -> float:
        return self.fixed_overhead + self.per_tensor_overhead * ntensors

    def wire_bytes(self, payload_bytes: int) -> int:
        """Bytes actually written/transferred for a raw payload size."""
        return int(payload_bytes * self.bytes_overhead_factor)


def _tensor_view(tensor: np.ndarray) -> memoryview:
    """Zero-copy flat byte view of a C-contiguous tensor."""
    if tensor.nbytes == 0:
        return memoryview(b"")
    # cast("B") rejects 0-d views; reshape(-1) is a view for contiguous data.
    return memoryview(tensor.reshape(-1)).cast("B")


def _tensor_pieces(state: Dict[str, np.ndarray]) -> Iterator:
    """The packed-tensor stream as an iovec: header bytes + tensor views.

    Joining the pieces reproduces the historical ``_pack_tensors`` output
    byte for byte; the tensor payloads are ``memoryview`` s over the live
    (contiguous) arrays, so emitting them copies nothing.
    """
    yield struct.pack("<I", len(state))
    for name in sorted(state):
        original = np.asarray(state[name])
        # ascontiguousarray promotes 0-d to 1-d; keep the true shape.
        shape = original.shape
        tensor = np.ascontiguousarray(original)
        name_b = name.encode("utf-8")
        dtype_b = tensor.dtype.str.encode("ascii")
        header = [struct.pack("<H", len(name_b)), name_b]
        header.append(struct.pack("<B", len(dtype_b)))
        header.append(dtype_b)
        header.append(struct.pack("<B", len(shape)))
        for dim in shape:
            header.append(struct.pack("<Q", dim))
        header.append(struct.pack("<Q", tensor.nbytes))
        yield b"".join(header)
        yield _tensor_view(tensor)


def _pack_tensors(state: Dict[str, np.ndarray]) -> bytes:
    return b"".join(_tensor_pieces(state))


def _unpack_tensors(
    segs: Segments, offset: int, *, copy: bool = True
) -> Tuple[Dict[str, np.ndarray], int]:
    """Parse the packed-tensor stream at ``offset``.

    Every field is bounds-checked before it is read: a truncated or
    garbled stream raises :class:`~repro.errors.IntegrityError` (a
    corruption the handler counts and retries), never a raw ``ValueError``
    or ``struct.error`` — the format may carry no checksum to catch it
    first.  A tensor that lies inside one segment is read in place; one
    that spans segments is joined first.
    """
    pos = offset
    # A blob loaded whole is one segment: slice it without the table walk.
    whole = segs.views[0] if len(segs.views) == 1 else None

    def take(n: int):
        nonlocal pos
        if n > segs.nbytes - pos:
            raise IntegrityError(
                f"truncated checkpoint: {n} bytes needed at offset {pos}, "
                f"{max(segs.nbytes - pos, 0)} left"
            )
        pos += n
        if whole is not None:
            return whole[pos - n : pos]
        return segs.slice(pos - n, pos)

    (count,) = _U32.unpack(take(4))
    state: Dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = _U16.unpack(take(2))
        raw_name = bytes(take(name_len))
        (dtype_len,) = _U8.unpack(take(1))
        raw_dtype = bytes(take(dtype_len))
        try:
            name = raw_name.decode("utf-8")
            dtype = np.dtype(raw_dtype.decode("ascii"))
        except (UnicodeDecodeError, TypeError) as exc:
            raise IntegrityError(f"corrupt tensor header: {exc}") from None
        (ndim,) = _U8.unpack(take(1))
        shape = struct.unpack(f"<{ndim}Q", take(8 * ndim))
        (raw_len,) = _U64.unpack(take(8))
        if raw_len % dtype.itemsize:
            raise IntegrityError(
                f"corrupt tensor {name!r}: {raw_len} bytes not a multiple "
                f"of itemsize {dtype.itemsize}"
            )
        if raw_len != dtype.itemsize * math.prod(shape):
            raise IntegrityError(
                f"corrupt tensor {name!r}: {raw_len} bytes for shape {shape}"
            )
        tensor = np.frombuffer(take(raw_len), dtype=dtype).reshape(shape)
        if copy:
            tensor = tensor.copy()
        else:
            # Zero-copy fast path: the array aliases the caller's buffer.
            tensor.flags.writeable = False
        state[name] = tensor
    return state, pos


class ViperSerializer(Serializer):
    """Viper's compact checkpoint format (weights + minimal metadata).

    Format v2 carries a CRC-32 of the packed-tensor payload in the
    header; :meth:`loads` verifies it (including on the zero-copy path,
    which reads but does not copy the buffer) and raises
    :class:`~repro.errors.IntegrityError` on mismatch, so corruption on
    the wire or in a tier is detected before any tensor is materialized.
    Given a :class:`Segments` table whose whole CRC the delta decoder
    verified, the payload CRC is derived from it with
    :func:`crc32_combine` and still compared with the header.
    """

    name = "viper"
    fixed_overhead = 0.010
    per_tensor_overhead = 0.0002
    bytes_overhead_factor = 1.005  # headers only

    def dumps(self, state):
        return b"".join(self.dump_chunks(state))

    def dump_chunks(self, state):
        # The checksum pass touches every piece before the header can be
        # emitted; the pieces are views over the live tensors, so holding
        # them costs no copies.
        pieces = self.payload_pieces(state)
        crc = 0
        for piece in pieces:
            crc = zlib.crc32(piece, crc)
        yield self.header_for(crc)
        yield from pieces

    def payload_pieces(self, state):
        if not state:
            raise StorageError("refusing to serialize an empty state dict")
        return list(_tensor_pieces(state))

    def header_for(self, payload_crc: int) -> bytes:
        return _VIPER_MAGIC + struct.pack("<II", _FORMAT_VERSION, payload_crc)

    def loads(self, blob, *, copy: bool = True):
        segs = Segments.of(blob)
        head = segs.slice(0, min(_V2_PAYLOAD_OFFSET, segs.nbytes))
        if head[:4] != _VIPER_MAGIC:
            raise StorageError("not a Viper checkpoint (bad magic)")
        if segs.nbytes < _V2_PAYLOAD_OFFSET:
            raise IntegrityError("truncated Viper checkpoint (header)")
        (version,) = struct.unpack_from("<I", head, 4)
        if version != _FORMAT_VERSION:
            raise StorageError(f"unsupported Viper checkpoint version {version}")
        (expected,) = struct.unpack_from("<I", head, 8)
        offset = _V2_PAYLOAD_OFFSET
        if segs.crc is None:
            actual = segs.crc32_from(offset)
        else:
            # CRC is linear: crc(header + payload) = shifted
            # crc(header) ^ crc(payload), so the payload's CRC falls
            # out of the verified whole CRC and 12 header bytes.
            actual = segs.crc ^ crc32_combine(
                zlib.crc32(head), 0, segs.nbytes - offset
            )
        if actual != expected:
            raise IntegrityError(
                f"Viper checkpoint checksum mismatch: header says "
                f"{expected:#010x}, payload hashes to {actual:#010x}",
                expected=expected,
                actual=actual,
            )
        state, _ = _unpack_tensors(segs, offset, copy=copy)
        return state


class H5LikeSerializer(Serializer):
    """Baseline emulating h5py's file structure and costs.

    Structural overheads modeled after HDF5:

    - a 512-byte superblock and root-group header;
    - per-dataset object headers + attribute blocks (~320 B each);
    - chunk/alignment padding folded into ``bytes_overhead_factor``.
    """

    name = "h5py"
    fixed_overhead = 0.150
    per_tensor_overhead = 0.003
    bytes_overhead_factor = 1.12

    _SUPERBLOCK = 512
    _PER_DATASET_HEADER = 320

    def dumps(self, state):
        return b"".join(self.dump_chunks(state))

    def dump_chunks(self, state):
        return iter(self.payload_pieces(state))

    def payload_pieces(self, state):
        # No checksum, so no header to derive: the whole stream.
        if not state:
            raise StorageError("refusing to serialize an empty state dict")
        return [
            _H5_MAGIC + b"\x00" * (self._SUPERBLOCK - 4),
            struct.pack("<I", len(state)),
            # Attribute/object-header filler per dataset, as HDF5 would
            # store creation order, fill values, chunking info, etc.
            b"\x00" * (self._PER_DATASET_HEADER * len(state)),
            *_tensor_pieces(state),
        ]

    def loads(self, blob, *, copy: bool = True):
        segs = Segments.of(blob)
        if segs.slice(0, min(4, segs.nbytes)) != _H5_MAGIC:
            raise StorageError("not an h5py-like checkpoint (bad magic)")
        if segs.nbytes < self._SUPERBLOCK + 4:
            raise IntegrityError("truncated h5py-like checkpoint (superblock)")
        (count,) = _U32.unpack(segs.slice(self._SUPERBLOCK, self._SUPERBLOCK + 4))
        offset = self._SUPERBLOCK + 4 + self._PER_DATASET_HEADER * count
        state, _ = _unpack_tensors(segs, offset, copy=copy)
        return state
