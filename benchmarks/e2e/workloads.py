"""The five workloads by name.  Each entry takes a
:class:`~benchmarks.e2e.harness.Run`, builds its deployment from the seed,
warms it up, marks the end of set-up with ``run.ready()``, drives the timed
loop and leaves its samples, counters and check results on the run.  The
README next to this file says why each workload exists."""

from __future__ import annotations

from typing import Callable, Dict

from benchmarks.e2e.byte_path import (
    run_full_update,
    run_full_update_delta,
    run_sparse_update,
)
from benchmarks.e2e.coupled import run_coupled_train_serve
from benchmarks.e2e.harness import Run
from benchmarks.e2e.serve_steady import run_serve_steady

__all__ = ["WORKLOADS"]

WORKLOADS: Dict[str, Callable[[Run], None]] = {
    "full_update": run_full_update,
    "full_update_delta": run_full_update_delta,
    "sparse_update": run_sparse_update,
    "serve_steady": run_serve_steady,
    "coupled_train_serve": run_coupled_train_serve,
}
