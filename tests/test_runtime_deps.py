"""The runtime needs numpy and nothing else, and importing a module loads
only its own layer.

Each check runs in a fresh interpreter: this one has long imported
scipy (the test-only oracle) and most of ``repro``.  The module sets are
checked, not import times.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(code: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_runtime_imports_and_fits_without_scipy():
    out = _run(
        "import sys\n"
        "sys.modules['scipy'] = None  # any scipy import now raises\n"
        "import numpy as np\n"
        "from repro import Viper\n"
        "import repro.cli, repro.serving.server\n"
        "from repro.core.predictor.adapter import CheckpointFrequencyAdapter\n"
        "from repro.core.predictor.cilp import CILParams\n"
        "from repro.core.predictor.tlp import TrainingLossPredictor\n"
        "x = np.arange(1.0, 201.0)\n"
        "curve = 2.0 * np.exp(-0.01 * x) + 0.3\n"
        "tlp = TrainingLossPredictor().fit(curve[:100])\n"
        "adapter = CheckpointFrequencyAdapter(\n"
        "    CILParams(t_train=0.05, t_p=0.05, t_c=0.05, t_infer=0.005),\n"
        "    warmup_iters=50, end_iter=200, total_infers=20_000, refit_every=50)\n"
        "for i, loss in enumerate(curve, start=1):\n"
        "    adapter.observe(i, float(loss))\n"
        "print(Viper.__name__, tlp.best_name, adapter.refits)\n"
    )
    name, best, refits = out.split()
    assert name == "Viper" and best and int(refits) >= 1


def test_a_leaf_import_loads_only_its_layer():
    out = _run(
        "import sys\n"
        "import repro.dnn.serialization\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
    )
    loaded = set(out.split())
    assert "repro.dnn.serialization" in loaded
    assert loaded - {"repro", "repro.errors"} <= {
        m for m in loaded if m == "repro.dnn" or m.startswith("repro.dnn.")
    }
