"""Figure 8 measurement harness: live update-latency per strategy.

Runs the live save/load path (real serialization and byte movement,
paper-scale virtual sizes) once per configuration the paper's Figure 8
compares, and returns the end-to-end update latency of each.  Shared by
the benchmark suite and the CLI.
"""

from __future__ import annotations

from typing import Dict

from repro.apps.registry import get_app
from repro.core.transfer.handler import ModelWeightsHandler
from repro.core.transfer.strategies import CaptureMode, TransferStrategy
from repro.dnn.serialization import H5LikeSerializer, ViperSerializer
from repro.substrates.cluster.cluster import make_producer_consumer_pair
from repro.substrates.profiles import POLARIS, HardwareProfile

__all__ = ["FIG8_CONFIGS", "measure_latencies"]

#: The six configurations of the paper's Figure 8, in plot order.
FIG8_CONFIGS = (
    ("h5py-baseline", H5LikeSerializer, TransferStrategy.PFS, CaptureMode.SYNC),
    ("viper-pfs", ViperSerializer, TransferStrategy.PFS, CaptureMode.SYNC),
    ("host-sync", ViperSerializer, TransferStrategy.HOST_TO_HOST, CaptureMode.SYNC),
    ("host-async", ViperSerializer, TransferStrategy.HOST_TO_HOST, CaptureMode.ASYNC),
    ("gpu-sync", ViperSerializer, TransferStrategy.GPU_TO_GPU, CaptureMode.SYNC),
    ("gpu-async", ViperSerializer, TransferStrategy.GPU_TO_GPU, CaptureMode.ASYNC),
)


def measure_latencies(
    app_name: str, profile: HardwareProfile = POLARIS, pipeline=None
) -> Dict[str, float]:
    """One live save+load per Figure 8 configuration; returns latencies.

    ``pipeline`` (a :class:`~repro.core.transfer.pipeline.PipelineConfig`)
    switches every configuration onto the chunked transfer path.
    """
    app = get_app(app_name)
    state = app.build_model().state_dict()
    out: Dict[str, float] = {}
    for label, serializer_cls, strategy, mode in FIG8_CONFIGS:
        cluster, producer, consumer = make_producer_consumer_pair(profile)
        handler = ModelWeightsHandler(
            cluster, producer, consumer, profile, serializer=serializer_cls(),
            pipeline=pipeline,
        )
        try:
            result = handler.save_weights(
                app_name,
                state,
                mode=mode,
                strategy=strategy,
                virtual_bytes=app.checkpoint_bytes,
                virtual_tensors=app.checkpoint_tensors,
            )
            handler.drain()
            loaded = handler.load_weights(app_name)
            assert loaded.version == result.version
            out[label] = result.update_latency
        finally:
            handler.close()
    return out
