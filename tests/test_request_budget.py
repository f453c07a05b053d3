"""``benchmarks/request_budget.py`` runs, and its stepwise request
records what ``InferenceServer.handle`` records.

The script times a request by calling the steps ``handle`` runs one by
one (``stepwise``).  If ``handle`` gains or loses a step, the copy would
time a different request without any error; the paired check below
serves one request each way and compares what both leave behind.
"""

from __future__ import annotations

import time

import pytest

from benchmarks import request_budget
from benchmarks.e2e.harness import Options, Run
from benchmarks.e2e.serve_steady import _SERVE_FULL, run_serve_steady
from repro.obs.metrics import Counter, Histogram


def _state(server) -> dict:
    """What serving one request changes: the aggregates, the admission
    counters, the freshness tracker's serve counts, and every counter and
    histogram count of the deployment's registry."""
    admission = server.admission
    state = {
        "next_id": server.requests[-1].request_id + 1,
        "scored": server.scored_requests,
        "per_version": sum(server.requests_per_version().values()),
        "admitted": admission.admitted,
        "inflight": admission.inflight,
        "shed": sum(admission.shed.values()),
    }
    for row in server.freshness.fleet(server.model_name):
        state[("serves", row.consumer)] = row.serves
    for inst in server.consumer.viper.metrics.collect():
        if isinstance(inst, Counter):
            state[(inst.name, inst.labels)] = inst.value
        elif isinstance(inst, Histogram):
            state[(inst.name, inst.labels)] = inst.count
    return state


def _delta(before: dict, after: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after if after[k] != before.get(k, 0)}


def test_main_prints_the_budget(capsys):
    assert request_budget.main(["--seconds", "0.2", "--requests", "4"]) == 0
    out = capsys.readouterr().out
    assert "sum of step medians" in out
    assert "tc1_conv1" in out and "score" in out


def test_a_stepwise_request_records_what_handle_records():
    run = Run(Options(workload="serve_steady", seed=0, seconds=0.2, t0=time.time()))
    try:
        run_serve_steady(run)
        assert run.failed == 0
        server = run.dep.server
        xs, ys = request_budget.inputs(0)
        x, y = xs[0], ys[0]
        # Far enough apart that the token bucket has refilled.
        gap = 100 * _SERVE_FULL.gap
        arrival = server.advance_clock(0.0)

        arrival += gap
        before = _state(server)
        server.poll_updates()
        _, handled = server.handle(x, y, deadline=arrival + _SERVE_FULL.budget,
                                   arrival=arrival)
        by_handle = _delta(before, _state(server))

        arrival += gap
        before = _state(server)
        assert request_budget.stepwise(
            server, x, y, arrival, arrival + _SERVE_FULL.budget, {}
        )
        by_steps = _delta(before, _state(server))
        stepped = server.requests[-1]
    finally:
        run.dep.close()

    assert by_handle["per_version"] == by_handle["next_id"] == 1
    assert by_steps == by_handle
    assert stepped.request_id == handled.request_id + 1
    assert stepped.sim_time - handled.sim_time == pytest.approx(gap)
    assert stepped.model_version == handled.model_version
    assert stepped.loss == handled.loss
