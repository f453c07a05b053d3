"""Incremental (delta) checkpointing.

The paper's related work (§2) covers Check-N-Run's incremental
checkpoints ("capturing the differences since the last checkpoint") and
DStore/EvoStore's partial capture "where the checkpoints change only
partially (e.g. transfer learning)".  This module brings that capability
to Viper's transfer engine:

- :func:`encode_delta` diffs two weight snapshots and emits a compact
  delta: unchanged tensors are dropped; tensors where only a few rows
  changed are encoded as (row indices, row values); everything else
  ships whole.
- :func:`apply_delta` reconstructs the full state from a base snapshot
  plus the delta.
- The delta is itself a flat ``Dict[str, np.ndarray]``, so the existing
  serializers, tier stores, channels, and timing laws apply unchanged —
  a delta checkpoint is just a (much smaller) checkpoint.

When does this pay off?  Exactly the fine-tuning scenario the paper's
motivating workflow describes: once the PtychoNN encoder is frozen and
only the decoders refine, a delta carries a fraction of the bytes, and
both the producer stall and the consumer load shrink proportionally
(see ``benchmarks/test_ablation_incremental.py``).

The chunk-level delta wire path (:mod:`repro.core.transfer.delta`) does
not use this module: its negotiation compares serialized pieces with the
retained base blob, which needs no second state dict.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.errors import StorageError

__all__ = [
    "encode_delta",
    "apply_delta",
    "is_delta",
    "delta_payload_bytes",
    "changed_names",
]

_MARK = "__delta__/base_version"
_FULL = "full/"
_ROWS_IDX = "rows_idx/"
_ROWS_VAL = "rows_val/"


def changed_names(
    prev: Dict[str, np.ndarray],
    curr: Dict[str, np.ndarray],
) -> Tuple[str, ...]:
    """Names of tensors in ``curr`` that differ from ``prev``.

    A tensor missing from ``prev`` or with a different shape/dtype
    counts as changed; comparison is exact (bit-level), matching
    :func:`encode_delta`'s unchanged-tensor elision.
    """
    out = []
    for name in sorted(curr):
        a = prev.get(name)
        b = curr[name]
        if a is None or a.shape != b.shape or a.dtype != b.dtype:
            out.append(name)
        elif not np.array_equal(a, b):
            out.append(name)
    return tuple(out)


def encode_delta(
    prev: Dict[str, np.ndarray],
    curr: Dict[str, np.ndarray],
    base_version: int,
    row_fraction_threshold: float = 0.5,
) -> Dict[str, np.ndarray]:
    """Encode ``curr`` as a delta against ``prev``.

    Tensors are compared exactly.  A changed tensor with ndim >= 2 whose
    changed-row fraction is below ``row_fraction_threshold`` is encoded
    sparsely by rows; otherwise it ships whole.  Unchanged tensors are
    omitted entirely.
    """
    if set(prev) != set(curr):
        raise StorageError(
            "delta encoding requires identical tensor sets "
            f"(prev-only: {sorted(set(prev) - set(curr))[:3]}, "
            f"curr-only: {sorted(set(curr) - set(prev))[:3]})"
        )
    if not 0.0 < row_fraction_threshold <= 1.0:
        raise StorageError("row_fraction_threshold must be in (0, 1]")
    delta: Dict[str, np.ndarray] = {
        _MARK: np.asarray(base_version, dtype=np.int64)
    }
    for name in sorted(curr):
        a, b = prev[name], curr[name]
        if a.shape != b.shape or a.dtype != b.dtype:
            raise StorageError(f"tensor {name!r} changed shape/dtype")
    for name in changed_names(prev, curr):
        a, b = prev[name], curr[name]
        if b.ndim >= 2:
            changed_rows = np.nonzero(
                np.any(a.reshape(a.shape[0], -1) != b.reshape(b.shape[0], -1), axis=1)
            )[0]
            if changed_rows.size / b.shape[0] <= row_fraction_threshold:
                delta[_ROWS_IDX + name] = changed_rows.astype(np.int64)
                delta[_ROWS_VAL + name] = np.ascontiguousarray(b[changed_rows])
                continue
        delta[_FULL + name] = b.copy()
    return delta


def is_delta(state: Dict[str, np.ndarray]) -> bool:
    """True when ``state`` is a delta checkpoint (has the version marker)."""
    return _MARK in state


def delta_base_version(state: Dict[str, np.ndarray]) -> int:
    """The base version a delta checkpoint must be applied to."""
    if not is_delta(state):
        raise StorageError("not a delta checkpoint")
    return int(state[_MARK])


def delta_payload_bytes(delta: Dict[str, np.ndarray]) -> int:
    """Raw bytes a delta carries (drives the virtual transfer size)."""
    return sum(int(t.nbytes) for t in delta.values())


def apply_delta(
    base: Dict[str, np.ndarray],
    delta: Dict[str, np.ndarray],
    expected_base_version: int = None,
) -> Dict[str, np.ndarray]:
    """Reconstruct the full snapshot: ``base`` + ``delta``."""
    if not is_delta(delta):
        raise StorageError("apply_delta: not a delta checkpoint")
    if (
        expected_base_version is not None
        and delta_base_version(delta) != expected_base_version
    ):
        raise StorageError(
            f"delta targets base v{delta_base_version(delta)}, "
            f"have v{expected_base_version}"
        )
    out = {name: value.copy() for name, value in base.items()}
    for key, value in delta.items():
        if key == _MARK or key.startswith(_ROWS_VAL):
            continue
        if key.startswith(_FULL):
            name = key[len(_FULL):]
            if name not in out:
                raise StorageError(f"delta references unknown tensor {name!r}")
            out[name] = value.copy()
        elif key.startswith(_ROWS_IDX):
            name = key[len(_ROWS_IDX):]
            if name not in out:
                raise StorageError(f"delta references unknown tensor {name!r}")
            values = delta.get(_ROWS_VAL + name)
            if values is None:
                raise StorageError(f"delta missing row values for {name!r}")
            updated = out[name].copy()
            updated[value] = values
            out[name] = updated
        else:
            raise StorageError(f"unknown delta section {key!r}")
    return out
