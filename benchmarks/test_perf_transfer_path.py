"""Transfer-path benchmark: the pipeline knob's simulated law, and the
serializer's throughput.

For each paper application (NT3.A 600 MB, TC1 4.7 GB, PtychoNN 4.5 GB)
the simulated update latency of every strategy is computed with the
pipeline off and on.  The knob's wall-clock effect, the zero-copy load,
is gated end to end by ``benchmarks/e2e`` (``full_update_delta`` and
``sparse_update``), not here.

Outputs ``benchmarks/results/BENCH_transfer.json`` (the simulated
monolithic/pipelined latencies per model and strategy), and gates:

- the simulated law never slower than monolithic anywhere on a grid;
- the Figure 8 shape holds with the pipeline off AND on;
- serializer throughput within 2x of the committed baseline
  (the CI perf-smoke regression gate).

``VIPER_PERF_QUICK=1`` shrinks the serializer payload and the Figure 8
sweep for the CI smoke job.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.analysis.latency import measure_latencies
from repro.apps import get_app
from repro.core.transfer.pipeline import PipelineConfig
from repro.core.transfer.strategies import (
    CaptureMode,
    TransferStrategy,
    compute_timings,
)
from repro.dnn.serialization import ViperSerializer
from repro.substrates.cost import GB, MB
from repro.substrates.profiles import POLARIS

QUICK = os.environ.get("VIPER_PERF_QUICK", "") not in ("", "0")

#: Real bytes the serializer gate moves per measurement.
REAL_PAYLOAD_BYTES = 8 * MB if QUICK else 64 * MB
REPEATS = 2 if QUICK else 3

APPS = ("nt3a", "tc1", "ptychonn")


def build_state(ntensors: int, total_bytes: int) -> dict:
    rng = np.random.default_rng(5)
    per = max(1, total_bytes // ntensors // 4)
    return {
        f"layer{i}/W": rng.standard_normal(per).astype(np.float32)
        for i in range(ntensors)
    }


def simulated_latencies(app_name: str, pipeline: PipelineConfig) -> dict:
    app = get_app(app_name)
    out = {}
    for strategy in TransferStrategy:
        mono = compute_timings(
            POLARIS, ViperSerializer(), strategy, CaptureMode.SYNC,
            app.checkpoint_bytes, app.checkpoint_tensors,
        )
        piped = compute_timings(
            POLARIS, ViperSerializer(), strategy, CaptureMode.SYNC,
            app.checkpoint_bytes, app.checkpoint_tensors, pipeline=pipeline,
        )
        out[strategy.value] = {
            "monolithic_s": mono.update_latency,
            "pipelined_s": piped.update_latency,
        }
    return out


@pytest.fixture(scope="module")
def bench_results(results_dir):
    pipeline = PipelineConfig(enabled=True)  # default 256 MB chunks, 2 lanes
    report = {
        "quick": QUICK,
        "simulated": {
            "chunk_bytes": pipeline.chunk_bytes,
            "lanes": pipeline.lanes,
            "models": {name: simulated_latencies(name, pipeline) for name in APPS},
        },
    }
    path = results_dir / "BENCH_transfer.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    return report


class TestSimulatedLaw:
    def test_pipelined_never_slower_anywhere(self):
        grid_bytes = (1, int(0.6 * GB), int(4.7 * GB))
        grid_chunks = (1 * MB, 64 * MB, 256 * MB, 8 * GB)
        grid_lanes = (1, 2, 8)
        for link in (POLARIS.nvlink, POLARIS.infiniband, POLARIS.pcie):
            for nbytes in grid_bytes:
                for chunk in grid_chunks:
                    for lanes in grid_lanes:
                        assert link.pipelined_transfer_time(
                            nbytes, chunk, lanes=lanes
                        ) <= link.transfer_time(nbytes) + 1e-12

    def test_report_shows_simulated_gain(self, bench_results):
        for name, per_strategy in bench_results["simulated"]["models"].items():
            for strategy, row in per_strategy.items():
                assert row["pipelined_s"] <= row["monolithic_s"] + 1e-12, (
                    name, strategy,
                )


class TestFig8ShapeWithPipeline:
    @pytest.mark.parametrize("app_name", ("nt3a",) if QUICK else APPS)
    def test_shape_holds_off_and_on(self, app_name):
        for pipeline in (None, PipelineConfig(enabled=True)):
            m = measure_latencies(app_name, pipeline=pipeline)
            assert (
                m["gpu-sync"]
                < m["host-sync"]
                < m["viper-pfs"]
                < m["h5py-baseline"]
            ), f"pipeline={pipeline}"


#: Conservative committed baseline for the CI perf-smoke regression gate:
#: measured ~1.5-2.5 GB/s dumps and ~2-4 GB/s loads on the reference
#: runner; the gate fires only on a >2x drop from these floors.
SERIALIZER_BASELINE_MBPS = {"dumps": 700.0, "loads": 900.0}


class TestSerializerThroughputGate:
    def test_within_2x_of_baseline(self):
        serializer = ViperSerializer()
        state = build_state(24, REAL_PAYLOAD_BYTES)
        nbytes = sum(t.nbytes for t in state.values())
        blob = serializer.dumps(state)  # warm up
        best_dump, best_load = float("inf"), float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            blob = serializer.dumps(state)
            best_dump = min(best_dump, time.perf_counter() - t0)
            t0 = time.perf_counter()
            serializer.loads(blob, copy=True)
            best_load = min(best_load, time.perf_counter() - t0)
        dump_mbps = nbytes / best_dump / MB
        load_mbps = nbytes / best_load / MB
        print(
            f"\nserializer throughput: dumps {dump_mbps:.0f} MB/s, "
            f"loads {load_mbps:.0f} MB/s"
        )
        assert dump_mbps >= SERIALIZER_BASELINE_MBPS["dumps"] / 2
        assert load_mbps >= SERIALIZER_BASELINE_MBPS["loads"] / 2
