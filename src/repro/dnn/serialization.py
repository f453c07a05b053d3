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

Both serializers additionally expose an *iovec* surface for the chunked
transfer pipeline (:mod:`repro.core.transfer.pipeline`):

- ``dump_chunks`` yields the serialized stream as zero-copy pieces —
  small header ``bytes`` plus ``memoryview`` s over the live tensors —
  avoiding the per-tensor ``tobytes`` copy and the monolithic join;
- ``load_chunks`` reassembles a chunk stream and deserializes it;
- ``loads(..., copy=False)`` returns read-only arrays aliasing the input
  buffer: a zero-copy load for consumers that only read the weights.

CRC-32 is linear, so a CRC computed over some bytes never has to be
computed again over a whole that contains them: :func:`crc32_combine`
joins two CRCs, which lets ``blob_crc`` (producer) and
``loads(..., blob_crc=)`` (consumer) derive the whole-blob and the
payload CRC from each other instead of re-reading every byte.
"""

from __future__ import annotations

import struct
import zlib
from typing import Dict, Iterable, Iterator, Optional, Tuple

import numpy as np

from repro.errors import IntegrityError, StorageError

__all__ = [
    "Serializer",
    "ViperSerializer",
    "H5LikeSerializer",
    "crc32_combine",
    "state_dict_nbytes",
]

_VIPER_MAGIC = b"VIPR"
_H5_MAGIC = b"\x89HDF"
# Version 2 adds a CRC-32 of the packed-tensor payload to the header:
#   VIPR | <I version> | <I crc32> | payload
# Version-1 blobs (VIPR | <I 1> | payload) still load, unverified.
_FORMAT_VERSION = 2
_V1_PAYLOAD_OFFSET = 8
_V2_PAYLOAD_OFFSET = 12


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


def _x2nmodp(n: int, k: int) -> int:
    """``x^(n * 2^k)`` modulo the CRC-32 polynomial."""
    p = 1 << 31  # x^0
    while n:
        if n & 1:
            p = _multmodp(_X2N[k & 31], p)
        n >>= 1
        k += 1
    return p


def crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """``zlib.crc32(a + b)`` from ``crc1 = crc32(a)``, ``crc2 = crc32(b)``
    and ``len2 = len(b)``, without reading a byte: O(log len2) polynomial
    products, ~0.1 ms in pure Python for a 24 MB ``b``."""
    return _multmodp(_x2nmodp(len2, 3), crc1) ^ (crc2 & 0xFFFFFFFF)


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

    def loads(
        self, blob, *, copy: bool = True, blob_crc: Optional[int] = None
    ) -> Dict[str, np.ndarray]:
        """Deserialize ``blob``.  ``blob_crc`` is ``zlib.crc32(blob)`` when
        the caller has already verified it over these very bytes; a
        checksumming format then derives its check from it."""
        raise NotImplementedError

    def blob_crc(self, blob) -> int:
        """``zlib.crc32(blob)`` of a blob this serializer just produced."""
        return zlib.crc32(blob)

    # -- iovec surface (chunked pipeline) -------------------------------
    def dump_chunks(self, state: Dict[str, np.ndarray]) -> Iterator:
        """Yield the serialized stream as zero-copy bytes-like pieces.

        ``b"".join(dump_chunks(state))`` equals ``dumps(state)`` exactly;
        tensor payloads are yielded as ``memoryview`` s over the live
        arrays, so no full-payload copy happens here.  Callers must not
        mutate ``state`` until the pieces have been consumed.
        """
        raise NotImplementedError

    def load_chunks(self, chunks: Iterable, *, copy: bool = True) -> Dict[str, np.ndarray]:
        """Reassemble a chunk stream (in order) and deserialize it.

        One reassembly copy into a contiguous buffer, then a
        ``loads(..., copy=copy)`` over it — with ``copy=False`` the
        returned arrays alias that buffer (read-only).
        """
        buf = bytearray()
        for chunk in chunks:
            buf += chunk
        # ``buf`` is privately owned, so aliasing it with copy=False is safe.
        return self.loads(buf, copy=copy)

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
    blob, offset: int, *, copy: bool = True
) -> Tuple[Dict[str, np.ndarray], int]:
    mv = memoryview(blob)
    (count,) = struct.unpack_from("<I", mv, offset)
    offset += 4
    state: Dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", mv, offset)
        offset += 2
        name = bytes(mv[offset : offset + name_len]).decode("utf-8")
        offset += name_len
        (dtype_len,) = struct.unpack_from("<B", mv, offset)
        offset += 1
        dtype = np.dtype(bytes(mv[offset : offset + dtype_len]).decode("ascii"))
        offset += dtype_len
        (ndim,) = struct.unpack_from("<B", mv, offset)
        offset += 1
        shape = []
        for _ in range(ndim):
            (dim,) = struct.unpack_from("<Q", mv, offset)
            shape.append(dim)
            offset += 8
        (raw_len,) = struct.unpack_from("<Q", mv, offset)
        offset += 8
        if raw_len % dtype.itemsize:
            raise StorageError(
                f"corrupt tensor {name!r}: {raw_len} bytes not a multiple "
                f"of itemsize {dtype.itemsize}"
            )
        tensor = np.frombuffer(
            mv, dtype=dtype, count=raw_len // dtype.itemsize, offset=offset
        ).reshape(shape)
        offset += raw_len
        if copy:
            tensor = tensor.copy()
        else:
            # Zero-copy fast path: the array aliases the caller's buffer.
            tensor.flags.writeable = False
        state[name] = tensor
    return state, offset


class ViperSerializer(Serializer):
    """Viper's compact checkpoint format (weights + minimal metadata).

    Format v2 carries a CRC-32 of the packed-tensor payload in the
    header; :meth:`loads` verifies it (including on the zero-copy path,
    which reads but does not copy the buffer) and raises
    :class:`~repro.errors.IntegrityError` on mismatch, so corruption on
    the wire or in a tier is detected before any tensor is materialized.
    Given a ``blob_crc`` the caller verified over the same bytes (the
    delta path's reconstruction CRC), the payload CRC is derived from it
    with :func:`crc32_combine` and still compared with the header.
    """

    name = "viper"
    fixed_overhead = 0.010
    per_tensor_overhead = 0.0002
    bytes_overhead_factor = 1.005  # headers only

    def dumps(self, state):
        return b"".join(self.dump_chunks(state))

    def dump_chunks(self, state):
        if not state:
            raise StorageError("refusing to serialize an empty state dict")
        # The checksum pass touches every piece before the header can be
        # emitted; the pieces are views over the live tensors, so holding
        # them costs no copies.
        pieces = list(_tensor_pieces(state))
        crc = 0
        for piece in pieces:
            crc = zlib.crc32(piece, crc)
        yield _VIPER_MAGIC + struct.pack("<II", _FORMAT_VERSION, crc)
        yield from pieces

    def blob_crc(self, blob) -> int:
        """The whole-blob CRC from the v2 header's payload CRC plus the 12
        header bytes: no payload byte is read.

        The header is taken at its word, so only the producer whose
        :meth:`dump_chunks` just wrote it may ask; a receiver checks
        instead (:meth:`loads`).  Anything but a v2 blob is CRC'd whole.
        """
        mv = memoryview(blob)
        if (
            len(mv) < _V2_PAYLOAD_OFFSET
            or mv[:4] != _VIPER_MAGIC
            or struct.unpack_from("<I", mv, 4)[0] != _FORMAT_VERSION
        ):
            return zlib.crc32(mv)
        (payload_crc,) = struct.unpack_from("<I", mv, 8)
        return crc32_combine(
            zlib.crc32(mv[:_V2_PAYLOAD_OFFSET]), payload_crc,
            len(mv) - _V2_PAYLOAD_OFFSET,
        )

    def loads(self, blob, *, copy: bool = True, blob_crc: Optional[int] = None):
        mv = memoryview(blob)
        if mv[:4] != _VIPER_MAGIC:
            raise StorageError("not a Viper checkpoint (bad magic)")
        (version,) = struct.unpack_from("<I", mv, 4)
        if version == 1:  # legacy, no checksum to verify
            offset = _V1_PAYLOAD_OFFSET
        elif version == _FORMAT_VERSION:
            (expected,) = struct.unpack_from("<I", mv, 8)
            offset = _V2_PAYLOAD_OFFSET
            if blob_crc is None:
                actual = zlib.crc32(mv[offset:])
            else:
                # CRC is linear: crc(header + payload) = shifted
                # crc(header) ^ crc(payload), so the payload's CRC falls
                # out of the verified whole-blob CRC and 12 header bytes.
                actual = blob_crc ^ crc32_combine(
                    zlib.crc32(mv[:offset]), 0, len(mv) - offset
                )
            if actual != expected:
                raise IntegrityError(
                    f"Viper checkpoint checksum mismatch: header says "
                    f"{expected:#010x}, payload hashes to {actual:#010x}",
                    expected=expected,
                    actual=actual,
                )
        else:
            raise StorageError(f"unsupported Viper checkpoint version {version}")
        state, _ = _unpack_tensors(mv, offset, copy=copy)
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
        if not state:
            raise StorageError("refusing to serialize an empty state dict")
        yield _H5_MAGIC + b"\x00" * (self._SUPERBLOCK - 4)
        yield struct.pack("<I", len(state))
        # Attribute/object-header filler per dataset, as HDF5 would store
        # creation order, fill values, chunking info, etc.
        yield b"\x00" * (self._PER_DATASET_HEADER * len(state))
        yield from _tensor_pieces(state)

    def loads(self, blob, *, copy: bool = True, blob_crc: Optional[int] = None):
        mv = memoryview(blob)
        if mv[:4] != _H5_MAGIC:
            raise StorageError("not an h5py-like checkpoint (bad magic)")
        (count,) = struct.unpack_from("<I", mv, self._SUPERBLOCK)
        offset = self._SUPERBLOCK + 4 + self._PER_DATASET_HEADER * count
        state, _ = _unpack_tensors(mv, offset, copy=copy)
        return state


def get_serializer(name: str) -> Serializer:
    """Resolve a serializer by name."""
    table = {"viper": ViperSerializer, "h5py": H5LikeSerializer}
    try:
        return table[name]()
    except KeyError:
        raise StorageError(f"unknown serializer {name!r}") from None
