"""Interconnect substrate: link models and their transfer-time laws.

A checkpoint crosses a link as a one-sided put into the consumer's tier
(:meth:`repro.substrates.memory.storage.TierStore.put`), priced by the
link's :class:`LinkSpec`; no message-passing layer sits in between.
"""

from repro.substrates.network.links import LinkKind, LinkSpec

__all__ = ["LinkKind", "LinkSpec"]
