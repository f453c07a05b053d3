"""Notification broker tests: pub/sub semantics and latency stamps."""

import sys
import threading
import time

import pytest

from repro.errors import NotificationError
from repro.core.notification import (
    PUSH_LATENCY,
    QUARANTINE_EVENT,
    NotificationBroker,
    is_quarantine,
)


def publish(broker, version=1, topic="t", now=10.0):
    return broker.publish(
        topic,
        model_name="m",
        version=version,
        location="gpu",
        now=now,
        payload={"path": f"m/v{version}"},
    )


class TestPubSub:
    def test_subscriber_receives(self):
        broker = NotificationBroker()
        sub = broker.subscribe("t")
        publish(broker, 1)
        note = sub.get(timeout=1.0)
        assert note.model_name == "m" and note.version == 1

    def test_fanout_to_all_subscribers(self):
        broker = NotificationBroker()
        subs = [broker.subscribe("t") for _ in range(3)]
        publish(broker)
        for sub in subs:
            assert sub.get(timeout=1.0).version == 1

    def test_topic_isolation(self):
        broker = NotificationBroker()
        a = broker.subscribe("a")
        b = broker.subscribe("b")
        publish(broker, topic="a")
        assert a.poll() is not None
        assert b.poll() is None

    def test_publish_without_subscribers_ok(self):
        broker = NotificationBroker()
        note = publish(broker)
        assert note.version == 1
        assert broker.published == 1

    def test_delivery_latency_stamp(self):
        broker = NotificationBroker()
        note = publish(broker, now=5.0)
        assert note.published_at == 5.0
        assert note.deliver_at == pytest.approx(5.0 + PUSH_LATENCY)

    def test_custom_latency(self):
        broker = NotificationBroker(push_latency=0.01)
        note = publish(broker, now=1.0)
        assert note.deliver_at == pytest.approx(1.01)

    def test_push_latency_below_1ms(self):
        """The paper's claim: push beats the 1 ms polling floor."""
        assert PUSH_LATENCY < 0.001

    def test_negative_latency_rejected(self):
        with pytest.raises(NotificationError):
            NotificationBroker(push_latency=-0.1)

    def test_payload_travels(self):
        broker = NotificationBroker()
        sub = broker.subscribe("t")
        publish(broker, 7)
        assert sub.get(timeout=1.0).payload["path"] == "m/v7"


class TestSubscription:
    def test_poll_nonblocking(self):
        broker = NotificationBroker()
        sub = broker.subscribe("t")
        assert sub.poll() is None
        publish(broker)
        assert sub.poll().version == 1
        assert sub.poll() is None

    def test_drain_returns_all_in_order(self):
        broker = NotificationBroker()
        sub = broker.subscribe("t")
        for v in (1, 2, 3):
            publish(broker, v)
        notes = sub.drain()
        assert [n.version for n in notes] == [1, 2, 3]

    def test_callback_fires_on_publish(self):
        broker = NotificationBroker()
        seen = []
        broker.subscribe("t", callback=lambda n: seen.append(n.version))
        publish(broker, 9)
        assert seen == [9]

    def test_get_timeout(self):
        broker = NotificationBroker()
        sub = broker.subscribe("t")
        with pytest.raises(NotificationError):
            sub.get(timeout=0.05)

    def test_delivered_counter(self):
        broker = NotificationBroker()
        sub = broker.subscribe("t")
        publish(broker, 1)
        publish(broker, 2)
        assert sub.delivered == 2

    def test_blocking_get_across_threads(self):
        broker = NotificationBroker()
        sub = broker.subscribe("t")
        got = []

        def waiter():
            got.append(sub.get(timeout=2.0).version)

        t = threading.Thread(target=waiter)
        t.start()
        publish(broker, 4)
        t.join(2.0)
        assert got == [4]


    def test_drain_racing_pushes_loses_none(self):
        # drain() skips the lock on an empty queue: a push racing that
        # check is picked up by a later drain, never lost or repeated.
        broker = NotificationBroker()
        sub = broker.subscribe("t")
        got = []

        def drainer():
            stop = time.monotonic() + 30
            while len(got) < 2000 and time.monotonic() < stop:
                got.extend(note.version for note in sub.drain())

        t = threading.Thread(target=drainer)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            t.start()
            for version in range(1, 2001):
                publish(broker, version)
            t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not t.is_alive()
        assert got == list(range(1, 2001))


class TestLifecycle:
    def test_unsubscribe_stops_delivery(self):
        broker = NotificationBroker()
        sub = broker.subscribe("t")
        broker.unsubscribe(sub)
        publish(broker)
        assert broker.subscriber_count("t") == 0

    def test_closed_subscription_raises(self):
        broker = NotificationBroker()
        sub = broker.subscribe("t")
        sub.close()
        with pytest.raises(NotificationError):
            sub.get(timeout=0.5)

    def test_broker_close_closes_all(self):
        broker = NotificationBroker()
        sub = broker.subscribe("t")
        broker.close()
        with pytest.raises(NotificationError):
            sub.get(timeout=0.5)
        assert broker.subscriber_count("t") == 0


class TestSequencing:
    def test_seq_is_monotonic_per_topic(self):
        broker = NotificationBroker()
        assert broker.current_seq("t") == 0
        notes = [publish(broker, v) for v in (1, 2, 3)]
        assert [n.seq for n in notes] == [1, 2, 3]
        assert broker.current_seq("t") == 3
        # Topics sequence independently.
        assert publish(broker, 1, topic="other").seq == 1

    def test_retained_is_last_published(self):
        broker = NotificationBroker()
        assert broker.retained("t") is None
        publish(broker, 1)
        publish(broker, 2)
        assert broker.retained("t").version == 2

    def test_consume_tracks_last_seq(self):
        broker = NotificationBroker()
        sub = broker.subscribe("t")
        publish(broker, 1)
        publish(broker, 2)
        sub.get(timeout=1)
        sub.get(timeout=1)
        assert sub.last_seq == 2
        assert sub.gaps == 0
        assert not sub.needs_catchup


class TestBoundedQueue:
    def test_overflow_coalesces_oldest(self):
        broker = NotificationBroker(queue_max=2)
        sub = broker.subscribe("t")
        for v in (1, 2, 3, 4):
            publish(broker, v)
        assert sub.pending == 2
        assert sub.coalesced == 2
        # The survivors are the newest messages — all a latest-model
        # consumer ever wants.
        assert [n.version for n in sub.drain()] == [3, 4]

    def test_gap_detected_at_consume_after_coalesce(self):
        broker = NotificationBroker(queue_max=1)
        sub = broker.subscribe("t")
        publish(broker, 1)
        sub.get(timeout=1)           # last_seq = 1
        publish(broker, 2)
        publish(broker, 3)           # coalesces away seq 2
        note = sub.get(timeout=1)
        assert note.seq == 3
        assert sub.gaps == 1
        assert sub.needs_catchup


class TestResubscribe:
    def test_matching_seq_needs_no_catchup(self):
        broker = NotificationBroker()
        publish(broker, 1)
        sub = broker.resubscribe("t", since=1)
        assert not sub.needs_catchup
        assert sub.gaps == 0
        # Nothing newer than `since` exists, so nothing is re-delivered.
        assert sub.pending == 0

    def test_missed_publishes_flag_catchup_and_redeliver_retained(self):
        broker = NotificationBroker()
        publish(broker, 1)
        publish(broker, 2)
        publish(broker, 3)
        sub = broker.resubscribe("t", since=1)  # consumer died after v1
        assert sub.needs_catchup
        assert sub.gaps == 1
        # The retained (newest) notification arrives without polling.
        note = sub.poll()
        assert note is not None and note.version == 3

    def test_broker_restart_regressed_seq_flags_catchup(self):
        # A fresh broker's counter restarts at 0; a consumer claiming a
        # higher `since` must not trust the push stream blindly.
        broker = NotificationBroker()
        sub = broker.resubscribe("t", since=7)
        assert sub.needs_catchup
        assert sub.last_seq == 0  # reconciled downward, never invented


def publish_quarantine(broker, version, topic="t", now=10.0):
    return broker.publish(
        topic,
        model_name="m",
        version=version,
        location="gpu",
        now=now,
        payload={"event": QUARANTINE_EVENT, "reason": "rollback"},
    )


class TestQuarantineSafeCoalescing:
    """Bounded-queue overflow must never lose a quarantine order."""

    def test_overflow_drops_oldest_ordinary_never_quarantine(self):
        broker = NotificationBroker(queue_max=2)
        sub = broker.subscribe("t")
        publish(broker, 1)
        publish_quarantine(broker, 1)
        publish(broker, 2)           # overflow: v1 (ordinary) is dropped
        notes = sub.drain()
        assert [n.version for n in notes] == [1, 2]
        assert is_quarantine(notes[0])
        assert sub.coalesced == 1

    def test_all_quarantine_queue_exceeds_maxlen(self):
        # When everything queued is a condemnation there is nothing safe
        # to drop: the queue stretches past maxlen rather than lose one.
        broker = NotificationBroker(queue_max=2)
        sub = broker.subscribe("t")
        for v in (1, 2, 3):
            publish_quarantine(broker, v)
        assert sub.pending == 3
        assert sub.coalesced == 0
        assert all(is_quarantine(n) for n in sub.drain())

    def test_ordinary_traffic_still_coalesces_around_quarantine(self):
        broker = NotificationBroker(queue_max=3)
        sub = broker.subscribe("t")
        publish_quarantine(broker, 1)
        for v in (2, 3, 4, 5):
            publish(broker, v)
        notes = sub.drain()
        assert is_quarantine(notes[0])
        # Ordinary survivors are the newest — the coalescing contract.
        assert [n.version for n in notes[1:]] == [4, 5]
        assert sub.coalesced == 2
