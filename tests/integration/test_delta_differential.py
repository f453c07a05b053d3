"""Differential property test: three wire paths, one byte stream.

A random sequence of versions (full-change, sparse, zero-change and
re-gridded saves, with the consumer loading only some of them) runs
through ``Viper.save_weights`` -> ``load_weights`` under three
configurations.  Every load must return the saved state byte for byte
(monolithic == pipelined == delta), and every save of the delta
configuration must stage exactly the bytes the reference producer below
emits.  The reference restates wire format v4 from scratch, compares and
CRCs every byte of every blob and carries nothing from one save to the
next, so any compare or CRC the real producer carries wrongly shows up
as a different frame.
"""

import struct
import zlib
from collections import OrderedDict

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import CaptureMode, TransferStrategy, Viper
from repro.core.transfer.delta import (
    CACHE_VERSIONS,
    DeltaConfig,
    is_delta_frame,
)
from repro.core.transfer.pipeline import PipelineConfig
from repro.dnn.serialization import ViperSerializer

CHUNK = 128
MODEL = "m"
SER = ViperSerializer()
#: v4: magic | version | base (len, crc) | out (len, crc) | nops, then
#: per op a tag (0 reuse, 1 literal) and a length.
FRAME_HEADER = struct.Struct("<4sIQIQII")
FRAME_OP = struct.Struct("<BQ")


def _grid(lengths):
    """(offset, length) of every chunk; the grid restarts at each piece."""
    offset = 0
    for n in lengths:
        for start in range(0, n, CHUNK):
            yield offset + start, min(CHUNK, n - start)
        offset += n


def reference_frame(base_blob, blob, lengths):
    """The v4 frame for ``blob`` against ``base_blob`` on the same grid,
    or None when it would not be smaller than ``blob``.  Reuse is
    positional; the size is decided from the compare alone, before a
    byte of the frame is assembled."""
    grid = list(_grid(lengths))
    same = [base_blob[o : o + n] == blob[o : o + n] for o, n in grid]
    literal = sum(n for (_o, n), hit in zip(grid, same) if not hit)
    if FRAME_HEADER.size + FRAME_OP.size * len(grid) + literal >= len(blob):
        return None
    ops = [
        FRAME_OP.pack(0, n) if hit else FRAME_OP.pack(1, n) + blob[o : o + n]
        for (o, n), hit in zip(grid, same)
    ]
    header = FRAME_HEADER.pack(
        b"VPRD", 4, len(base_blob), zlib.crc32(base_blob),
        len(blob), zlib.crc32(blob), len(ops),
    )
    return header + b"".join(ops)


class ReferenceProducer:
    """The negotiation rules, restated: which bytes a save stages."""

    def __init__(self):
        self.cache = OrderedDict()  # version -> (blob, piece lengths)
        self.held = None            # version the consumer last loaded

    def wire(self, version, state) -> bytes:
        lengths = [memoryview(p).nbytes for p in SER.dump_chunks(state)]
        blob = SER.dumps(state)
        base = self.cache.get(self.held)
        self.cache[version] = (blob, lengths)
        while len(self.cache) > CACHE_VERSIONS:
            self.cache.popitem(last=False)
        if base is None or base[1] != lengths:  # no base, or a moved grid
            return blob
        frame = reference_frame(base[0], blob, lengths)
        return blob if frame is None else frame


def _configs():
    pipe = PipelineConfig(enabled=True, chunk_bytes=200, lanes=2)
    delta = DeltaConfig(enabled=True, chunk_bytes=CHUNK)
    return {
        "monolithic": dict(),
        "pipelined": dict(pipeline=pipe),
        "delta": dict(pipeline=pipe, delta=delta),
    }


def _staged(viper, record) -> bytes:
    node = viper.consumer_node
    store = {"gpu": node.gpu, "host_dram": node.dram, "pfs": viper.cluster.pfs}
    return store[record.location].get(record.path)[0]


def _versions(seed, sizes, steps):
    """The state of every version, from the step list."""
    rng = np.random.default_rng(seed)
    state = {
        f"t{i}": rng.standard_normal(n).astype(np.float32)
        for i, n in enumerate(sizes)
    }
    for kind, mask, _load in steps:
        state = dict(state)
        names = sorted(state)
        if kind == "full":
            touched = names
        elif kind in ("sparse", "part"):
            touched = [k for k, hit in zip(names, mask) if hit]
        else:
            touched = []
        for k in touched:
            fresh = rng.standard_normal(state[k].shape).astype(np.float32)
            if kind == "part":  # only the head changes: the tail's chunks reuse
                half = fresh.size // 2
                fresh[half:] = state[k][half:]
            state[k] = fresh
        if kind == "grow":  # one piece changes length: the grid shifts
            state[names[-1]] = np.append(state[names[-1]], np.float32(1.5))
        elif kind == "add":  # the piece count changes
            state[f"t{len(names)}"] = rng.standard_normal(5).astype(np.float32)
        yield state


def run_sequence(seed, sizes, steps):
    states = list(_versions(seed, sizes, steps))
    loaded = {}
    for name, kwargs in _configs().items():
        reference = ReferenceProducer() if "delta" in kwargs else None
        outputs = []
        with Viper(**kwargs) as viper:
            for (_kind, _mask, load), state in zip(steps, states):
                res = viper.save_weights(
                    MODEL, state, mode=CaptureMode.SYNC,
                    strategy=TransferStrategy.HOST_TO_HOST,
                )
                wire = _staged(viper, res.record)
                if reference is None:
                    assert wire == SER.dumps(state), name
                else:
                    expected = reference.wire(res.version, state)
                    assert wire == expected, (name, res.version)
                if load:
                    got = viper.load_weights(MODEL)
                    assert got.version == res.version
                    outputs.append(SER.dumps(got.state))
                    assert outputs[-1] == SER.dumps(state), (name, res.version)
                    if reference is not None:
                        reference.held = res.version
        loaded[name] = outputs
    first = loaded["monolithic"]
    assert all(out == first for out in loaded.values())
    return loaded


step = st.tuples(
    st.sampled_from(["full", "sparse", "sparse", "part", "zero", "grow", "add"]),
    st.lists(st.booleans(), min_size=6, max_size=6),
    st.booleans(),
)


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 2**16),
    sizes=st.lists(st.integers(1, 160), min_size=2, max_size=4),
    steps=st.lists(step, min_size=2, max_size=8),
)
def test_all_wire_paths_agree_and_frames_match_reference(seed, sizes, steps):
    run_sequence(seed, sizes, steps)


def test_named_scenario_covers_every_producer_branch():
    """One fixed sequence through each branch the property can reach:
    baseless save, sparse carry, zero change, a full change that ships
    whole followed by a diff against it, a shifted grid, a new piece, a
    held base that fell out of the producer cache, and a tensor changed
    only in its head (chunks of a changed piece reused in place)."""
    some, none = [False, True, False, False, False, False], [False] * 6
    head = [True] + [False] * 5
    steps = [
        ("full", none, True),     # v1: no base yet
        ("sparse", some, True),   # v2: carried pieces and CRCs
        ("zero", none, True),     # v3: all reuse
        ("full", none, True),     # v4: frame not smaller -> ships whole
        ("sparse", some, True),   # v5: diffs against v4's joined blob
        ("grow", none, True),     # v6: grid shifted -> ships whole
        ("add", none, True),      # v7: piece count changed -> whole
        ("sparse", some, False),  # v8..v12 unloaded: v7 is evicted from
        ("sparse", some, False),  # the producer cache (CACHE_VERSIONS=4)
        ("sparse", some, False),
        ("sparse", some, False),
        ("sparse", some, False),
        ("sparse", some, True),   # v13: base gone -> ships whole; reload
        ("sparse", some, True),   # v14: delta again
        ("part", head, True),     # v15: t0's tail chunks reused in place
    ]
    sizes = [150, 24, 97, 7]
    run_sequence(7, sizes, steps)
    # The scenario did exercise frames, not only whole blobs.
    states = list(_versions(7, sizes, steps))
    reference = ReferenceProducer()
    kinds = []
    for version, ((_k, _m, load), state) in enumerate(zip(steps, states), 1):
        kinds.append(is_delta_frame(reference.wire(version, state)))
        if load:
            reference.held = version
    assert kinds == [
        False, True, True, False, True, False, False,
        True, True, True, True, False, False, True, True,
    ]
