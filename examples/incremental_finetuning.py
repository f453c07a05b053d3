"""Transparent delta updates during fine-tuning (frozen encoder).

The paper's §1 workflow ends in a fine-tuning phase; once the PtychoNN
encoder is frozen, every checkpoint differs from the previous one only
in the decoder tensors.  This example:

1. fine-tunes PtychoNN with a frozen encoder;
2. saves every checkpoint whole through ``Viper(delta=True)``, which
   ships only the chunks that changed since the version the consumer
   holds;
3. loads each one with a plain ``load_weights`` — the consumer never
   sees a delta, let alone applies one;
4. compares bytes moved and simulated update latency against full
   checkpoints.

Run:  python examples/incremental_finetuning.py
"""

import os

import numpy as np

from repro import CaptureMode, TransferStrategy, Viper
from repro.apps import get_app

# Smoke runs shrink the example via this multiplier (see quickstart.py).
EX_SCALE = float(os.environ.get("VIPER_EXAMPLE_SCALE", "1.0"))


def main() -> None:
    app = get_app("ptychonn")
    model = app.build_model()
    frozen = model.freeze("ptycho_enc")
    x, y, _xt, _yt = app.dataset(scale=max(0.02, 0.05 * EX_SCALE), seed=23)
    print(f"fine-tuning PtychoNN with {frozen} frozen encoder layers")

    save = dict(
        mode=CaptureMode.ASYNC,
        strategy=TransferStrategy.GPU_TO_GPU,
        virtual_bytes=app.checkpoint_bytes,  # paper-scale timing
        virtual_tensors=app.checkpoint_tensors,
    )
    with Viper(delta=True) as viper:
        # The first checkpoint ships whole: the consumer holds no base yet.
        full = viper.save_weights("ptychonn", model.state_dict(), **save)
        viper.drain()
        viper.load_weights("ptychonn")

        total_full, total_wire = 0, 0
        for epoch in range(3):
            model.fit(x, y, epochs=1, batch_size=64, seed=epoch)
            result = viper.save_weights("ptychonn", model.state_dict(), **save)
            viper.drain()
            loaded = viper.load_weights("ptychonn")
            record = loaded.record
            total_full += record.nbytes
            total_wire += record.nbytes * record.wire_fraction
            print(f"  epoch {epoch + 1}: v{record.version} shipped "
                  f"{record.wire_fraction:6.1%} of the checkpoint, simulated "
                  f"update latency {result.update_latency:.3f}s "
                  f"(whole: {full.update_latency:.3f}s)")

        # What the consumer loaded equals the producer's model.
        for key, value in model.state_dict().items():
            np.testing.assert_array_equal(loaded.state[key], value)
        print("consumer state verified identical after 3 delta updates")
        print(f"bytes moved (paper scale): {total_wire / 1e9:.2f} GB vs "
              f"{total_full / 1e9:.2f} GB full "
              f"({1 - total_wire / total_full:.1%} saved)")


if __name__ == "__main__":
    main()
