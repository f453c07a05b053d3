"""What the benchmark declares: workload names, the metrics only some
workloads produce, and the ``BENCHMARK.json`` loader.  Imports nothing
heavy, so the parent process and ``compare.py`` can use it."""

from __future__ import annotations

import json
import math
import pathlib

__all__ = [
    "ROOT", "WORKLOAD_NAMES", "BYTE_PATH", "SERVE", "SCOPED", "EXACT",
    "load_contract", "bounds", "percentile",
]

ROOT = pathlib.Path(__file__).resolve().parents[2]

BYTE_PATH = ("full_update", "full_update_delta", "sparse_update")
SERVE = ("serve_steady", "coupled_train_serve")
WORKLOAD_NAMES = BYTE_PATH + SERVE

#: End-to-end metrics that only some workloads produce, so they cannot be in
#: ``BENCHMARK.json`` (whose ``end_to_end`` list is emitted by every
#: workload): name -> (unit, better, bound, workloads).
SCOPED = {
    "update_wall_ms_p90": ("ms", "lower", 0.25, BYTE_PATH),
    "update_mb_s": ("MB/s", "higher", 0.25, BYTE_PATH),
    "request_wall_us_p99": ("us", "lower", 0.25, SERVE),
    "cil": ("loss", "lower", 0.0, ("coupled_train_serve",)),
    "train_stall_sim_s": ("s_sim", "lower", 0.0, ("coupled_train_serve",)),
    "train_overhead_wall_s": ("s", "lower", 0.25, ("coupled_train_serve",)),
    "failed_ops_share": ("ratio", "lower", 0.25, WORKLOAD_NAMES),
}

#: Metrics that repeat bit for bit between two runs of the same code with
#: the same seed and size; compared for equality, not against a bound.
EXACT = ("update_sim_s_p50", "wire_bytes_per_update", "cil", "train_stall_sim_s")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def bounds() -> dict:
    """name -> (unit, better, bound) for every end-to-end metric, declared
    in ``BENCHMARK.json`` or workload-scoped."""
    out = {
        m["name"]: (m["unit"], m["better"], m["bound"])
        for m in load_contract()["end_to_end"]
    }
    out.update({name: spec[:3] for name, spec in SCOPED.items()})
    return out
