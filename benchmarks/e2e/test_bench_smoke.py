"""Smoke test of the end-to-end benchmark at ``--smoke`` size.

Run as ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (outside
tier-1's ``testpaths``).  Nothing is written under ``results/``.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys
import time

import pytest

from benchmarks.e2e.contract import EXACT, WORKLOAD_NAMES, load_contract

RUN = pathlib.Path(__file__).with_name("run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _last_json(cmd) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), *cmd], stdout=subprocess.PIPE, check=True,
        timeout=120,
    )
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def _worker(workload: str, seed: int, trace: int) -> dict:
    return _last_json([
        "--worker", "--smoke", "--workload", workload, "--seed", str(seed),
        "--trace", str(trace), "--t0", repr(time.time()),
    ])


@pytest.fixture(scope="module", params=WORKLOAD_NAMES)
def runs(request):
    """Two untraced runs with seed 0 and a traced run with seed 1."""
    w = request.param
    return _worker(w, 0, 0), _worker(w, 0, 0), _worker(w, 1, 1)


def _declared(key: str) -> dict:
    return {m["name"]: m["unit"] for m in load_contract()[key]}


def test_emits_exactly_the_declared_metrics(runs):
    first, _, traced = runs
    for result, key in ((first, "end_to_end"), (traced, "per_layer")):
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == _declared(key)
        for name, unit in got.items():
            assert NAME.match(name), name
            assert UNIT.match(unit), (name, unit)
        for m in result["metrics"].values():
            assert isinstance(m["value"], (int, float))
    assert all(m["value"] > 0 for m in first["metrics"].values())


def test_outputs_are_correct_and_trace_sums_up(runs):
    for result in runs:
        assert result["correct"], result["checks"]
        assert result["failed"] == 0 and result["attempted"] >= 1
    traced = runs[2]
    assert traced["metrics"]["trace.attributed_share"]["value"] >= 0.95
    assert traced["layer_table"]


def test_exact_metrics_repeat_and_seed_changes_inputs(runs):
    first, second, other_seed = runs
    both = {**first["metrics"], **first["scoped"]}
    again = {**second["metrics"], **second["scoped"]}
    for name in EXACT:
        if name in both:
            assert both[name]["value"] == again[name]["value"], name
    assert first["input_digest"] == second["input_digest"]
    assert first["input_digest"] != other_seed["input_digest"]


def test_command_prints_the_contract_line():
    last = _last_json(["--smoke", "--workload", "full_update", "--trace", "0"])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert set(last["metrics"]) == set(_declared("end_to_end"))
