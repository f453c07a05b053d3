"""Hardware and execution substrates for the Viper reproduction.

The paper evaluates Viper on ALCF Polaris (A100 GPUs, NVLink, InfiniBand /
Slingshot, Lustre).  This package models that hardware so the rest of the
library can run anywhere:

- :mod:`repro.substrates.simclock` — a simulated clock and a small
  discrete-event engine used by the coupled producer/consumer workflow.
- :mod:`repro.substrates.memory` — multi-tier storage (GPU HBM, host DRAM,
  node-local SSD, parallel file system) with bandwidth/latency models and a
  real byte store per tier.
- :mod:`repro.substrates.network` — interconnect link models (NVLink, PCIe,
  InfiniBand, PFS fabric) and their transfer-time laws.
- :mod:`repro.substrates.cluster` — compute nodes and two-node topologies.
"""

from repro.substrates.simclock import SimClock, EventLoop, Event

__all__ = ["SimClock", "EventLoop", "Event"]
