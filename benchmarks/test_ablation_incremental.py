"""Ablation: full vs delta checkpoints in a fine-tuning workflow.

The paper's related work motivates incremental/partial checkpointing
(Check-N-Run, DStore, EvoStore) for workloads where checkpoints change
only partially — exactly the fine-tuning stage of the paper's §1
workflow once the PtychoNN encoder is frozen.  This bench drives two
consecutive fine-tuning checkpoints through ``Viper()`` and
``Viper(delta=True)`` and reports, per transfer strategy, the fraction
of the checkpoint that crossed the wire and the simulated end-to-end
update latency.  The PFS row ships the self-contained blob either way:
the handler never stages a delta frame on the durable tier.
"""

from itertools import cycle

import numpy as np
import pytest

from repro import CaptureMode, TransferStrategy, Viper
from repro.apps import get_app
from benchmarks.conftest import emit


@pytest.fixture(scope="module")
def finetune_snapshots():
    """Two consecutive fine-tuning checkpoints with a frozen encoder."""
    app = get_app("ptychonn")
    model = app.build_model()
    model.freeze("ptycho_enc")
    x, y, _xt, _yt = app.dataset(scale=0.05, seed=12)
    model.fit(x, y, epochs=1, batch_size=64, seed=0)
    before = model.state_dict()
    model.fit(x, y, epochs=1, batch_size=64, seed=1)
    after = model.state_dict()
    return app, before, after


def update(viper, app, state, strategy):
    """Save ``state`` at paper scale and load it back: (result, loaded)."""
    result = viper.save_weights(
        "ptychonn", state,
        mode=CaptureMode.ASYNC, strategy=strategy,
        virtual_bytes=app.checkpoint_bytes,
        virtual_tensors=app.checkpoint_tensors,
    )
    viper.drain()
    return result, viper.load_weights("ptychonn")


def second_update(app, before, after, strategy, delta):
    """``after`` shipped once the consumer holds ``before``."""
    with Viper(delta=delta) as viper:
        update(viper, app, before, strategy)
        result, loaded = update(viper, app, after, strategy)
    for key in after:
        np.testing.assert_array_equal(loaded.state[key], after[key])
    return result.update_latency, loaded.record.wire_fraction


def test_incremental_bytes_and_latency(finetune_snapshots, results_dir):
    app, before, after = finetune_snapshots
    rows = [
        "Ablation: full vs delta checkpoints (PtychoNN fine-tuning, frozen "
        "encoder)",
        f"{'strategy':<8}{'wire':>8}{'full e2e(s)':>12}{'delta e2e(s)':>13}"
        f"{'speedup':>9}",
        "-" * 50,
    ]
    for strategy in TransferStrategy:
        full_t, full_wire = second_update(app, before, after, strategy, False)
        delta_t, wire = second_update(app, before, after, strategy, True)
        rows.append(
            f"{strategy.value:<8}{wire:>8.1%}{full_t:>12.3f}{delta_t:>13.3f}"
            f"{full_t / delta_t:>9.2f}"
        )
        assert full_wire == 1.0
        if strategy is TransferStrategy.PFS:
            assert wire == 1.0 and delta_t == full_t
        else:
            # With the encoder frozen the frame carries well under the
            # full size, and the update is faster for it.
            assert wire < 0.8
            assert delta_t < full_t
    emit(results_dir, "ablation_incremental", "\n".join(rows))


def test_delta_roundtrip_through_viper(finetune_snapshots, benchmark):
    """Wall time of one delta save + load of the fine-tuned checkpoint."""
    app, before, after = finetune_snapshots
    host = TransferStrategy.HOST_TO_HOST
    with Viper(delta=True) as viper:
        update(viper, app, before, host)
        states = cycle([after, before])

        def roundtrip():
            return update(viper, app, next(states), host)[1]

        loaded = benchmark(roundtrip)
        assert loaded.record.wire_fraction < 0.8
