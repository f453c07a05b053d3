"""The memory-first model transfer engine (paper §4.4, Fig. 7).

- :mod:`strategies` — the three transfer strategies (GPU-to-GPU,
  Host-to-Host, PFS) × two capture modes (sync, async) and their timing
  laws over a hardware profile.
- :mod:`selector` — the Transfer Selector choosing a strategy per save
  request (GPU-direct preferred, host RDMA fallback, PFS last).
- :mod:`double_buffer` — the consumer-side double buffer with an atomic
  primary/alternate swap.
- :mod:`engine` — the one background worker class; the handler runs
  one instance for asynchronous delivery and one flushing historical
  checkpoints to the PFS for fault tolerance.
- :mod:`pipeline` — the chunked-transfer knob, which drives only the
  simulated stage-overlap law, and the one-pass ``serialize_pipelined``.
- :mod:`delta` — the delta wire path (positional reuse/literal recipe
  frames checked by CRC-32, DeltaManager negotiation); the one mechanism
  that ships only what changed.
- :mod:`handler` — the Model Weights Handler facade processing
  save/load requests end to end.
"""
