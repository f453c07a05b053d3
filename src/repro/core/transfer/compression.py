"""Pluggable lossless compression codecs for the delta wire format.

"Reducing the GPU Memory Bottleneck with Lossless Compression for ML"
(PAPERS.md) observes that DNN tensor streams compress well losslessly —
exponent bytes repeat, fine-tuned weights cluster, and optimizer state
is highly structured.  The delta transfer path
(:mod:`repro.core.transfer.delta`) therefore compresses the *literal*
chunks of a recipe (the bytes that actually move) through one of these
codecs, chosen by ``DeltaConfig(compression=...)``.

The registry is deliberately small and dependency-free:

- ``none`` — identity; the default, zero CPU cost;
- ``zlib`` — stdlib DEFLATE at a throughput-oriented level;
- ``lz4``  — registered only when the ``lz4`` package is importable
  (the container does not bake it in; the codec id is reserved so blobs
  written elsewhere still decode where the package exists).

Every codec is identified on the wire by a single stable byte
(:data:`CODEC_IDS`), so a recipe records per-literal which codec
produced it and a reader never guesses.  ``encode`` may return the
input unchanged when compression does not pay (the caller compares
lengths and keeps whichever is smaller, marking the op as ``none``).
"""

from __future__ import annotations

import zlib
from typing import Dict, Type

from repro.errors import ConfigurationError, IntegrityError

__all__ = [
    "Codec",
    "NullCodec",
    "ZlibCodec",
    "get_codec",
    "codec_for_id",
    "available_codecs",
    "CODEC_IDS",
]

#: Stable wire ids; never renumber (frames persisted in tiers/PFS
#: mirrors reference them).
CODEC_IDS: Dict[str, int] = {"none": 0, "zlib": 1, "lz4": 2}


class Codec:
    """Contract: ``decode(encode(data), len(data)) == data`` exactly."""

    name = "codec"

    @property
    def wire_id(self) -> int:
        return CODEC_IDS[self.name]

    def encode(self, data) -> bytes:
        raise NotImplementedError

    def decode(self, data, out_len: int) -> bytes:
        raise NotImplementedError


class NullCodec(Codec):
    """Identity codec: bytes pass through untouched."""

    name = "none"

    def encode(self, data) -> bytes:
        return bytes(data)

    def decode(self, data, out_len: int) -> bytes:
        blob = bytes(data)
        if len(blob) != out_len:
            raise IntegrityError(
                f"literal length mismatch: recipe says {out_len}, "
                f"frame carries {len(blob)}",
                expected=out_len,
                actual=len(blob),
            )
        return blob


class ZlibCodec(Codec):
    """Stdlib DEFLATE, tuned for throughput over ratio.

    Level 1 keeps the compress stage fast enough to overlap with the
    send lanes; checkpoint tensors that compress at all compress almost
    as well at level 1 as at level 6, at a fraction of the CPU cost.
    """

    name = "zlib"

    def __init__(self, level: int = 1):
        if not 0 <= level <= 9:
            raise ConfigurationError(f"zlib level must be in [0, 9], got {level}")
        self.level = level

    def encode(self, data) -> bytes:
        return zlib.compress(bytes(data), self.level)

    def decode(self, data, out_len: int) -> bytes:
        try:
            blob = zlib.decompress(bytes(data))
        except zlib.error as exc:
            raise IntegrityError(f"corrupt zlib literal: {exc}") from exc
        if len(blob) != out_len:
            raise IntegrityError(
                f"zlib literal inflated to {len(blob)} bytes, "
                f"recipe says {out_len}",
                expected=out_len,
                actual=len(blob),
            )
        return blob


_REGISTRY: Dict[str, Type[Codec]] = {"none": NullCodec, "zlib": ZlibCodec}

try:  # pragma: no cover - exercised only where lz4 is installed
    import lz4.frame as _lz4frame

    class Lz4Codec(Codec):
        """lz4-frame codec; present only when the package is installed."""

        name = "lz4"

        def encode(self, data) -> bytes:
            return _lz4frame.compress(bytes(data))

        def decode(self, data, out_len: int) -> bytes:
            try:
                blob = _lz4frame.decompress(bytes(data))
            except RuntimeError as exc:
                raise IntegrityError(f"corrupt lz4 literal: {exc}") from exc
            if len(blob) != out_len:
                raise IntegrityError(
                    f"lz4 literal inflated to {len(blob)} bytes, "
                    f"recipe says {out_len}",
                    expected=out_len,
                    actual=len(blob),
                )
            return blob

    _REGISTRY["lz4"] = Lz4Codec
    __all__.append("Lz4Codec")
except ImportError:
    pass


def available_codecs() -> tuple:
    """Names accepted by :func:`get_codec` in this environment."""
    return tuple(sorted(_REGISTRY))


def get_codec(name: str) -> Codec:
    """Resolve a codec by configuration name."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown compression codec {name!r}; "
            f"options: {sorted(_REGISTRY)}"
        ) from None


def codec_for_id(wire_id: int) -> Codec:
    """Resolve a codec from its wire byte (the decode side)."""
    for name, cid in CODEC_IDS.items():
        if cid == wire_id:
            if name not in _REGISTRY:
                raise ConfigurationError(
                    f"frame uses codec {name!r} (id {wire_id}) which is not "
                    f"installed in this environment"
                )
            return _REGISTRY[name]()
    raise IntegrityError(f"unknown codec id {wire_id} in delta frame")
