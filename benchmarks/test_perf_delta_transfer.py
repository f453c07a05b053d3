"""Perf benchmark + regression gates for the delta wire path.

Two questions, answered with real bytes and the simulated timing law:

1. **Bytes on the wire** — serialize a payload, mutate a fraction of its
   tensors, and measure the *actual* encoded frame size against the full
   blob.  The acceptance gate: a 10%-changed update moves >= 3x fewer
   bytes than the monolithic path.
2. **Update latency** — drive the same scenario through the Viper facade
   at paper scale (virtual descriptors) and compare end-to-end simulated
   update latency with the delta path on vs off.  Gates: measurably
   faster when 10% changed; within 5% of monolithic when 100% changed
   (the fallback must not regress the worst case).

Wall-clock encode/decode throughput is reported (not gated) so a
compare or CRC regression shows up in the JSON history:
``encode_mbps`` / ``decode_mbps`` time the bare ``encode_frame`` /
``decode_frame`` calls, which know nothing about their inputs and CRC
every byte (``encode_frame`` runs a save's chunk compare over every
piece); ``manager_encode_mbps`` / ``manager_decode_mbps`` time the
third update of a chain through ``DeltaManager`` — the path
``Viper.save_weights`` / ``load_weights`` take — where the producer
serializes the live state itself
(``encode_for_save(state)``: only the changed tensors are compared
chunk by chunk, copied and CRC'd) and CRCs computed or verified for the
previous version are carried instead of recomputed.

Outputs ``benchmarks/results/BENCH_delta.json``.  ``VIPER_PERF_QUICK=1``
shrinks the real payload for the CI smoke job.
"""

import json
import os
import time

import numpy as np
import pytest

from repro import CaptureMode, TransferStrategy, Viper
from repro.apps import get_app
from repro.core.transfer.delta import (
    DeltaConfig,
    DeltaManager,
    decode_frame,
    encode_frame,
)
from repro.dnn.serialization import ViperSerializer
from repro.substrates.cost import MB

QUICK = os.environ.get("VIPER_PERF_QUICK", "") not in ("", "0")

REAL_PAYLOAD_BYTES = 8 * MB if QUICK else 64 * MB
N_TENSORS = 20
CHUNK_BYTES = 64 * 1024

#: The acceptance gates.
MIN_WIRE_REDUCTION_10PCT = 3.0   # >= 3x fewer bytes, 10% changed
MAX_LATENCY_REGRESSION = 1.05    # <= 5% slower, 100% changed (fallback)


def build_state(seed=9):
    rng = np.random.default_rng(seed)
    per = max(1, REAL_PAYLOAD_BYTES // N_TENSORS // 4)
    return {
        f"layer{i}/W": rng.standard_normal(per).astype(np.float32)
        for i in range(N_TENSORS)
    }


def mutate(state, fraction, seed=10):
    """Return a copy with ``fraction`` of the tensors fully rewritten."""
    rng = np.random.default_rng(seed)
    n_changed = max(1, int(round(fraction * len(state))))
    out = {k: v.copy() for k, v in state.items()}
    for key in list(out)[:n_changed]:
        out[key] = rng.standard_normal(out[key].shape).astype(np.float32)
    return out


def measure_wire(fraction: float) -> dict:
    """Real encoded-frame bytes for a ``fraction``-changed update."""
    ser = ViperSerializer()
    base_state = build_state()
    new_state = mutate(base_state, fraction)
    base_blob = ser.dumps(base_state)

    t0 = time.perf_counter()
    frame, stats = encode_frame(base_blob, ser.dump_chunks(new_state), CHUNK_BYTES)
    encode_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    out = decode_frame(frame, base_blob)
    decode_s = time.perf_counter() - t0
    assert out == ser.dumps(new_state)  # the benchmark never ships garbage

    full = stats.bytes_total
    wire = min(len(frame), full)  # the handler falls back when frame >= full
    manager_encode_s, manager_decode_s = measure_manager(fraction)
    return {
        "changed_fraction": fraction,
        "full_bytes": full,
        "wire_bytes": wire,
        "reduction_x": full / wire,
        "dedup_hit_ratio": round(stats.dedup_hit_ratio, 4),
        "encode_mbps": round(full / max(encode_s, 1e-9) / MB, 1),
        "decode_mbps": round(full / max(decode_s, 1e-9) / MB, 1),
        "manager_encode_mbps": round(full / max(manager_encode_s, 1e-9) / MB, 1),
        # None: the manager shipped the blob whole, nothing to decode.
        "manager_decode_mbps": (
            None if manager_decode_s is None
            else round(full / max(manager_decode_s, 1e-9) / MB, 1)
        ),
    }


def measure_manager(fraction: float):
    """Seconds the producer and the consumer side of ``DeltaManager`` take
    for one ``fraction``-changed update in steady state: the best of
    updates 3-5 of a chain, whose base is itself a version the manager
    encoded and reconstructed (host noise is one-sided)."""
    ser = ViperSerializer()
    manager = DeltaManager(
        DeltaConfig(enabled=True, chunk_bytes=CHUNK_BYTES),
        serializer=ser,
    )
    state = build_state()
    encode_s, decode_s = [], []
    for version in (1, 2, 3, 4, 5):
        t0 = time.perf_counter()
        frame, _, saved = manager.encode_for_save("bench", version, state)
        t1 = time.perf_counter()
        loaded = (
            saved.blob() if frame is None
            else manager.decode_for_load("bench", frame)
        )
        t2 = time.perf_counter()
        assert bytes(loaded) == ser.dumps(state)
        manager.register_loaded("bench", version, loaded)
        if version >= 3:
            encode_s.append(t1 - t0)
            if frame is not None:
                decode_s.append(t2 - t1)
        state = mutate(state, fraction, seed=10 + version)
    return min(encode_s), min(decode_s) if decode_s else None


def simulated_latency(app_name: str, fraction: float, delta: bool) -> float:
    """End-to-end simulated update latency through the Viper facade."""
    app = get_app(app_name)
    state = build_state()
    kwargs = dict(
        mode=CaptureMode.SYNC,
        strategy=TransferStrategy.HOST_TO_HOST,
        virtual_bytes=app.checkpoint_bytes,
        virtual_tensors=app.checkpoint_tensors,
    )
    with Viper(delta=delta) as viper:
        viper.save_weights("bench", state, **kwargs)
        viper.load_weights("bench")  # register the consumer-held base
        changed = mutate(state, fraction)
        result = viper.save_weights("bench", changed, **kwargs)
        load = viper.load_weights("bench")
        # Exact bytes either way: the speed never costs correctness.
        for key in changed:
            np.testing.assert_array_equal(load.state[key], changed[key])
    return result.update_latency


APPS = ("nt3a",) if QUICK else ("nt3a", "tc1")


@pytest.fixture(scope="module")
def bench_results(results_dir):
    wire_rows = [measure_wire(0.1), measure_wire(0.5), measure_wire(1.0)]
    latency = {}
    for name in APPS:
        latency[name] = {
            "mono_10pct_s": simulated_latency(name, 0.1, delta=False),
            "delta_10pct_s": simulated_latency(name, 0.1, delta=True),
            "mono_100pct_s": simulated_latency(name, 1.0, delta=False),
            "delta_100pct_s": simulated_latency(name, 1.0, delta=True),
        }
    report = {
        "quick": QUICK,
        "real_payload_bytes": REAL_PAYLOAD_BYTES,
        "chunk_bytes": CHUNK_BYTES,
        "wire": wire_rows,
        "simulated_latency": latency,
    }
    path = results_dir / "BENCH_delta.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    lines = ["Delta wire path: bytes moved per update (real payload)"]
    for row in wire_rows:
        lines.append(
            f"  {row['changed_fraction'] * 100:5.0f}% changed  "
            f"{row['full_bytes'] / MB:6.1f} MB -> "
            f"{row['wire_bytes'] / MB:6.1f} MB   "
            f"({row['reduction_x']:.1f}x)"
        )
    print("\n" + "\n".join(lines))
    return report


class TestBytesOnWire:
    def test_10pct_change_moves_3x_fewer_bytes(self, bench_results):
        row = bench_results["wire"][0]
        assert row["changed_fraction"] == 0.1
        assert row["reduction_x"] >= MIN_WIRE_REDUCTION_10PCT

    def test_full_change_never_ships_more_than_monolithic(self, bench_results):
        for row in bench_results["wire"]:
            assert row["wire_bytes"] <= row["full_bytes"]


class TestSimulatedLatency:
    def test_10pct_change_is_measurably_faster(self, bench_results):
        for name, row in bench_results["simulated_latency"].items():
            assert row["delta_10pct_s"] < row["mono_10pct_s"] * 0.95, name

    def test_100pct_change_within_5pct_of_monolithic(self, bench_results):
        for name, row in bench_results["simulated_latency"].items():
            assert (
                row["delta_100pct_s"]
                <= row["mono_100pct_s"] * MAX_LATENCY_REGRESSION
            ), name
