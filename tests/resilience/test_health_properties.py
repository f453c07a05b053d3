"""Property-based tests (hypothesis) for the overload-protection core.

Two components whose invariants everything else leans on:

- :class:`~repro.serving.admission.TokenBucket` — admissions over any
  window never exceed ``rate * window + burst``, a rewinding clock mints
  nothing, and a denied acquire mutates nothing;
- :class:`~repro.resilience.health.LeaseRegistry` — no eviction before a
  full TTL of silence, eviction is idempotent, and a heartbeat always
  renews a live lease.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience.health import LeaseRegistry
from repro.serving.admission import TokenBucket

# Clock instants: non-negative, finite, coarse enough that float error
# cannot blur the rate bound being asserted.
instants = st.floats(min_value=0.0, max_value=1e4, allow_nan=False,
                     allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    rate=st.floats(min_value=0.1, max_value=100.0),
    burst=st.floats(min_value=1.0, max_value=50.0),
    times=st.lists(instants, min_size=1, max_size=80),
)
def test_token_bucket_never_admits_above_rate_window_plus_burst(
    rate, burst, times
):
    # Arbitrary (possibly rewinding) clock sequence; forward progress is
    # bounded by max(times) - times[0], and rewinds mint nothing, so the
    # admitted count over the whole run can never exceed the envelope.
    bucket = TokenBucket(rate, burst)
    admitted = sum(1 for t in times if bucket.try_acquire(t))
    window = max(max(times) - times[0], 0.0)
    assert admitted <= rate * window + burst + 1e-6


@settings(max_examples=200, deadline=None)
@given(
    rate=st.floats(min_value=0.1, max_value=100.0),
    burst=st.floats(min_value=1.0, max_value=50.0),
    forward=instants,
    rewind=instants,
)
def test_token_bucket_monotone_under_clock_rewind(rate, burst, forward, rewind):
    # After draining at `forward`, a clock reading at or before it must
    # not refill the bucket.
    bucket = TokenBucket(rate, burst)
    while bucket.try_acquire(forward):
        pass
    earlier = min(rewind, forward)
    assert bucket.available(earlier) == pytest.approx(
        bucket.available(forward), abs=1e-9
    )
    assert not bucket.try_acquire(earlier)


@settings(max_examples=200, deadline=None)
@given(
    rate=st.floats(min_value=0.1, max_value=100.0),
    burst=st.floats(min_value=1.0, max_value=50.0),
    now=instants,
    ask=st.floats(min_value=51.0, max_value=1e3),
)
def test_token_bucket_denial_mutates_nothing(rate, burst, now, ask):
    bucket = TokenBucket(rate, burst)
    before = bucket.available(now)
    assert not bucket.try_acquire(now, tokens=ask)  # ask > any burst
    assert bucket.available(now) == before


@settings(max_examples=200, deadline=None)
@given(
    ttl=st.floats(min_value=0.01, max_value=100.0),
    granted=instants,
    beats=st.lists(instants, max_size=20),
    probe=instants,
)
def test_lease_never_evicted_before_ttl_of_silence(ttl, granted, beats, probe):
    reg = LeaseRegistry(ttl)
    reg.grant("m", granted)
    last = granted
    for t in beats:
        reg.heartbeat("m", t)
        last = max(last, t)
    evicted = reg.expire(probe)
    if probe <= last + ttl:
        assert evicted == []
        assert reg.alive("m")
    else:
        assert evicted == ["m"]


@settings(max_examples=200, deadline=None)
@given(
    ttl=st.floats(min_value=0.01, max_value=100.0),
    granted=instants,
    probes=st.lists(instants, min_size=2, max_size=20),
)
def test_lease_eviction_is_idempotent(ttl, granted, probes):
    reg = LeaseRegistry(ttl)
    reg.grant("m", granted)
    total = sum(len(reg.expire(t)) for t in probes)
    assert total <= 1
    assert reg.expirations == total


@settings(max_examples=200, deadline=None)
@given(
    ttl=st.floats(min_value=0.01, max_value=100.0),
    granted=instants,
    beat=instants,
)
def test_heartbeat_always_renews_a_live_lease(ttl, granted, beat):
    reg = LeaseRegistry(ttl)
    reg.grant("m", granted)
    assert reg.heartbeat("m", beat)
    # Renewal is against max(last_beat, beat): no expiry can fire within
    # a TTL of the latest observed instant.  Probe strictly inside the
    # window — (t + ttl) - t can round past ttl for arbitrary floats;
    # the exact boundary is pinned with clean floats in test_health.py.
    horizon = max(granted, beat) + 0.99 * ttl
    assert reg.expire(horizon) == []
    assert reg.alive("m")
