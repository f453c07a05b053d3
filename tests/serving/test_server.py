"""Live inference-server tests."""

import numpy as np
import pytest

from repro import CaptureMode, Viper
from repro.errors import ServingError
from repro.dnn.layers import Dense
from repro.dnn.losses import MSELoss
from repro.dnn.models import Sequential
from repro.dnn.optimizers import SGD
from repro.obs.freshness import FreshnessTracker
from repro.rollout.policy import RolloutPolicy
from repro.serving.server import InferenceServer


def builder():
    model = Sequential([Dense(1, name="d")], input_shape=(2,), seed=3)
    model.compile(SGD(0.01), MSELoss())
    return model


@pytest.fixture
def setup():
    viper = Viper()
    consumer = viper.consumer(model_builder=builder)
    consumer.subscribe()
    server = InferenceServer(consumer, "m", loss_fn=MSELoss(), t_infer=0.01)
    yield viper, consumer, server
    viper.close()


def publish_weights(viper, value):
    state = builder().state_dict()
    state["d/W"][...] = value
    state["d/b"][...] = 0.0
    viper.save_weights("m", state, mode=CaptureMode.SYNC)


class TestServing:
    def test_handle_returns_prediction_and_record(self, setup):
        _viper, _consumer, server = setup
        x = np.ones((1, 2), dtype=np.float32)
        pred, req = server.handle(x, y_true=np.zeros((1, 1), dtype=np.float32))
        assert pred.shape == (1, 1)
        assert req.model_version == 0
        assert np.isfinite(req.loss)

    def test_loss_nan_without_ground_truth(self, setup):
        _viper, _consumer, server = setup
        _pred, req = server.handle(np.ones((1, 2), dtype=np.float32))
        assert np.isnan(req.loss)

    def test_sim_time_advances_per_request(self, setup):
        _viper, _consumer, server = setup
        x = np.ones((1, 2), dtype=np.float32)
        _p, r1 = server.handle(x)
        _p, r2 = server.handle(x)
        assert r2.sim_time - r1.sim_time == pytest.approx(0.01)

    def test_update_changes_serving_version(self, setup):
        viper, _consumer, server = setup
        x = np.ones((1, 2), dtype=np.float32)
        _p, before = server.handle(x)
        publish_weights(viper, 5.0)
        assert server.poll_updates()
        _p, after = server.handle(x)
        assert before.model_version == 0 and after.model_version == 1

    def test_poll_without_updates_false(self, setup):
        _viper, _consumer, server = setup
        assert not server.poll_updates()

    def test_updated_weights_change_predictions(self, setup):
        viper, _consumer, server = setup
        x = np.ones((1, 2), dtype=np.float32)
        pred_before, _ = server.handle(x)
        publish_weights(viper, 3.0)
        server.poll_updates()
        pred_after, _ = server.handle(x)
        np.testing.assert_allclose(pred_after, [[6.0]], atol=1e-5)
        assert not np.allclose(pred_before, pred_after)

    def test_serve_batch_accounting(self, setup):
        viper, _consumer, server = setup
        xs = [np.ones((1, 2), dtype=np.float32)] * 5
        ys = [np.zeros((1, 1), dtype=np.float32)] * 5
        served = server.serve_batch(xs, ys)
        assert len(served) == 5
        assert server.cumulative_loss == pytest.approx(
            sum(r.loss for r in served)
        )

    def test_requests_per_version(self, setup):
        viper, _consumer, server = setup
        x = np.ones((1, 2), dtype=np.float32)
        server.handle(x)
        publish_weights(viper, 1.0)
        server.poll_updates()
        server.handle(x)
        server.handle(x)
        assert server.requests_per_version() == {0: 1, 1: 2}

    def test_invalid_t_infer(self, setup):
        viper, consumer, _server = setup
        with pytest.raises(ServingError):
            InferenceServer(consumer, "m", t_infer=0.0)


class TestStalenessWatchdog:
    def test_invalid_deadline(self, setup):
        _viper, consumer, _server = setup
        with pytest.raises(ServingError, match="staleness_deadline"):
            InferenceServer(consumer, "m", staleness_deadline=0.0)

    def test_fallback_after_push_silence(self):
        viper = Viper()
        consumer = viper.consumer(model_builder=builder)
        consumer.subscribe()
        server = InferenceServer(
            consumer, "m", t_infer=0.01, staleness_deadline=0.05
        )
        # Sever the push channel (a crashed broker / dropped delivery):
        # publishes land in metadata but never reach this subscriber.
        viper.broker.unsubscribe(consumer._sub)
        publish_weights(viper, 2.0)
        x = np.ones((1, 2), dtype=np.float32)

        # Inside the deadline the server trusts the (silent) push stream.
        for _ in range(4):
            server.handle(x)            # sim_time -> 0.04
            assert not server.poll_updates()
        assert server.stale_fallbacks == 0

        # Past the deadline the watchdog performs exactly one poll, which
        # discovers the missed version.
        server.handle(x)                # sim_time -> 0.05
        assert server.poll_updates()
        assert server.stale_fallbacks == 1
        assert consumer.current_version == 1
        assert viper.handler.stats.snapshot().stale_fallbacks == 1

        # The watchdog re-armed: no immediate second fallback.
        assert not server.poll_updates()
        assert server.stale_fallbacks == 1
        viper.close()

    def test_no_fallback_when_pushes_flow(self):
        viper = Viper()
        consumer = viper.consumer(model_builder=builder)
        consumer.subscribe()
        server = InferenceServer(
            consumer, "m", t_infer=0.01, staleness_deadline=0.05
        )
        x = np.ones((1, 2), dtype=np.float32)
        for value in (1.0, 2.0, 3.0):
            publish_weights(viper, value)
            for _ in range(10):
                server.handle(x)
            assert server.poll_updates()
        assert server.stale_fallbacks == 0
        assert consumer.current_version == 3
        viper.close()


class TestWatermarkWithoutMetrics:
    def test_latest_known_advances_with_metrics_off(self):
        # Regression: the legacy stale-serve watermark used to advance
        # only when a metrics registry was armed, silently breaking
        # stale accounting in the (default) unmetered configuration.
        viper = Viper()
        consumer = viper.consumer(model_builder=builder)
        consumer.subscribe()
        server = InferenceServer(
            consumer, "m", t_infer=0.01, staleness_deadline=10.0
        )
        assert not server.metrics.enabled
        assert not server.freshness.enabled
        # Sever the push channel so the publish is discoverable only
        # through the metadata store (no swap happens: the watchdog is
        # far from its deadline).
        viper.broker.unsubscribe(consumer._sub)
        publish_weights(viper, 2.0)
        assert not server.poll_updates()
        assert consumer.current_version == 0
        assert server._latest_known == 1
        viper.close()


class TestIdlePollWithFreshness:
    @pytest.mark.parametrize("rollout", [None, RolloutPolicy()], ids=["plain", "rollout"])
    def test_idle_polls_read_no_metadata(self, rollout, monkeypatch):
        # An armed freshness tracker decides staleness, so the legacy
        # watermark is never read and an idle push-mode poll has no
        # reason to ask the metadata store for "latest".  The lease
        # heartbeat still goes out on every poll.
        viper = Viper(freshness=FreshnessTracker(), lease_ttl=60.0)
        consumer = viper.consumer(model_builder=builder)
        consumer.subscribe()
        server = InferenceServer(
            consumer, "m", t_infer=0.01, staleness_deadline=10.0, rollout=rollout
        )
        publish_weights(viper, 2.0)
        server.poll_updates()  # consumes the notification
        calls = []
        latest = viper.metadata.latest
        monkeypatch.setattr(
            viper.metadata, "latest",
            lambda *args: calls.append(args) or latest(*args),
        )
        beats = viper.broker.health.lease(consumer.name).beats
        for _ in range(25):
            assert not server.poll_updates()
        assert calls == []
        assert viper.broker.health.lease(consumer.name).beats == beats + 25
        viper.close()


class TestBoundedRequestLog:
    def test_aggregates_survive_eviction(self):
        viper = Viper()
        consumer = viper.consumer(model_builder=builder)
        consumer.subscribe()
        server = InferenceServer(
            consumer, "m", loss_fn=MSELoss(), t_infer=0.01, max_request_log=3
        )
        x = np.ones((1, 2), dtype=np.float32)
        y = np.zeros((1, 1), dtype=np.float32)
        losses = [server.handle(x, y)[1].loss for _ in range(10)]
        # The window is bounded...
        assert len(server.requests) == 3
        assert len(server.versions_served()) == 3
        # ...but the aggregates cover all 10 requests.
        assert server.cumulative_loss == pytest.approx(sum(losses))
        assert server.scored_requests == 10
        assert server.requests_per_version() == {0: 10}
        viper.close()

    def test_unbounded_by_default(self, setup):
        _viper, _consumer, server = setup
        x = np.ones((1, 2), dtype=np.float32)
        for _ in range(5):
            server.handle(x)
        assert len(server.requests) == 5

    def test_invalid_cap(self, setup):
        _viper, consumer, _server = setup
        with pytest.raises(ServingError, match="max_request_log"):
            InferenceServer(consumer, "m", max_request_log=0)


class TestWatchdogQuarantineInteraction:
    def test_fallback_poll_does_not_resurrect_quarantined(self):
        # A watchdog fallback resolves "latest" through the metadata
        # store, whose pointer skips quarantined versions — so a poll
        # after a rollback lands on the last-known-good, never the
        # condemned one.
        viper = Viper()
        consumer = viper.consumer(model_builder=builder)
        consumer.subscribe()
        server = InferenceServer(
            consumer, "m", t_infer=0.01, staleness_deadline=0.05
        )
        x = np.ones((1, 2), dtype=np.float32)
        publish_weights(viper, 1.0)
        assert server.poll_updates()
        assert consumer.current_version == 1

        # v2 is published but condemned (a peer's rollback), and the
        # push channel dies so only the watchdog can discover anything.
        viper.broker.unsubscribe(consumer._sub)
        publish_weights(viper, 9.0)
        viper.metadata.quarantine_version("m", 2, "loss_regression")

        for _ in range(6):
            server.handle(x)
        assert not server.poll_updates()       # fallback fired, found v1
        assert server.stale_fallbacks == 1
        assert consumer.current_version == 1   # v2 stayed dead

        # Even naming the condemned version explicitly is refused.
        with pytest.raises(ServingError, match="quarantined"):
            consumer.apply_update("m", 2)
        assert consumer.current_version == 1
        viper.close()


class TestRolloutServing:
    def make_server(self, viper, **policy_overrides):
        from repro.rollout import RolloutPolicy

        kwargs = dict(canary_fraction=0.25, min_canary_samples=2, window=16)
        kwargs.update(policy_overrides)
        consumer = viper.consumer(model_builder=builder)
        consumer.subscribe()
        server = InferenceServer(
            consumer, "m", loss_fn=MSELoss(), t_infer=0.01,
            rollout=RolloutPolicy(**kwargs),
        )
        return consumer, server

    def test_good_candidate_canaries_then_promotes(self):
        viper = Viper()
        consumer, server = self.make_server(viper)
        x = np.ones((1, 2), dtype=np.float32)
        y = np.full((1, 1), 2.0, dtype=np.float32)  # v1 (W=1) predicts 2
        publish_weights(viper, 1.0)
        server.serve_batch([x] * 20, [y] * 20)
        assert consumer.current_version == 1
        assert server.rollout.promotions == 1
        # Both arms served while the canary was under evaluation.
        per = server.requests_per_version()
        assert per[0] > 0 and per[1] > 0
        viper.close()

    def test_bad_candidate_rolls_back_within_canary_share(self):
        viper = Viper()
        consumer, server = self.make_server(viper)
        x = np.ones((1, 2), dtype=np.float32)
        y = np.full((1, 1), 2.0, dtype=np.float32)
        publish_weights(viper, 1.0)          # good: loss 0
        server.serve_batch([x] * 20, [y] * 20)
        assert consumer.current_version == 1

        publish_weights(viper, 50.0)         # bad: predicts 100, loss huge
        server.serve_batch([x] * 40, [y] * 40)
        assert consumer.current_version == 1  # never swapped
        record, _ = viper.metadata.record("m", 2)
        assert record.quarantined
        assert record.quarantine_reason == "loss_regression"
        per = server.requests_per_version()
        # Hard canary cap: the bad version served at most its fraction.
        assert per.get(2, 0) <= 0.25 * sum(per.values())
        assert server.rollout.rollbacks == 1
        assert server.rollout.time_to_detect[0] >= 0.0

        publish_weights(viper, 1.0)          # v3: healthy again
        server.serve_batch([x] * 20, [y] * 20)
        assert consumer.current_version == 3  # fleet converged forward
        viper.close()

    def test_nan_candidate_rolls_back_immediately(self):
        viper = Viper()
        consumer, server = self.make_server(viper)
        x = np.ones((1, 2), dtype=np.float32)
        y = np.full((1, 1), 2.0, dtype=np.float32)
        publish_weights(viper, 1.0)
        server.serve_batch([x] * 20, [y] * 20)
        publish_weights(viper, float("nan"))
        server.serve_batch([x] * 40, [y] * 40)
        assert consumer.current_version == 1
        record, _ = viper.metadata.record("m", 2)
        assert record.quarantined
        assert record.quarantine_reason == "nan_output"
        # A single canary-served NaN is enough: exactly one request was
        # exposed to the bad version.
        assert server.requests_per_version().get(2, 0) == 1
        viper.close()


class TestCorruptLoadRejection:
    def test_corrupt_update_keeps_last_good_model(self):
        from repro.errors import IntegrityError, RetriesExhausted
        from repro.resilience import FaultKind, FaultPlan, FaultRule

        viper = Viper()
        consumer = viper.consumer(model_builder=builder)
        consumer.subscribe()
        server = InferenceServer(consumer, "m", t_infer=0.01)
        x = np.ones((1, 2), dtype=np.float32)

        publish_weights(viper, 3.0)
        assert server.poll_updates()
        pred_good, _ = server.handle(x)

        # Every subsequent read returns corrupt bytes on all replicas.
        plan = FaultPlan(
            [FaultRule(site="store.get:*", kind=FaultKind.CORRUPT,
                       probability=1.0)],
            seed=11,
        )
        plan.arm(viper.cluster)
        publish_weights(viper, 9.0)
        with pytest.raises((IntegrityError, RetriesExhausted)):
            consumer.refresh()
        plan.disarm()

        # The corrupt checkpoint never reached either buffer slot: the
        # live model still serves v1 with identical predictions, and the
        # rejection is visible in both the buffer and the Stats Manager.
        assert consumer.current_version == 1
        pred_after, req = server.handle(x)
        assert req.model_version == 1
        np.testing.assert_array_equal(pred_after, pred_good)
        assert consumer._buffer.swaps_rejected == 1
        assert viper.handler.stats.snapshot().swaps_rejected == 1
        viper.close()

    def test_garbled_tensor_length_in_an_unchecksummed_blob_is_rejected(self):
        # An h5py-like blob carries no checksum: the packed-tensor parser
        # is the only check, and a length that is not a whole number of
        # elements is a corruption like any other (counted, retried, the
        # swap rejected), not a plain storage error.
        import struct

        from repro import TransferStrategy
        from repro.dnn.serialization import H5LikeSerializer
        from repro.errors import IntegrityError, RetriesExhausted

        kw = dict(mode=CaptureMode.SYNC, strategy=TransferStrategy.HOST_TO_HOST)
        with Viper(serializer=H5LikeSerializer()) as viper:
            consumer = viper.consumer(model_builder=builder)
            state = builder().state_dict()
            viper.save_weights("m", state, **kw)
            consumer.apply_update("m")
            state["d/W"][...] = 5.0
            res = viper.save_weights("m", state, **kw)
            store = viper.consumer_node.dram
            blob, _ = store.get(res.record.path)
            raw_len = struct.pack("<Q", state["d/W"].nbytes)  # 8 B
            assert blob.count(raw_len) == 1
            store.put(res.record.path, blob.replace(raw_len, struct.pack("<Q", 9)))
            with pytest.raises(RetriesExhausted) as info:
                consumer.apply_update("m")
            assert isinstance(info.value.__cause__, IntegrityError)
            snap = viper.handler.stats.snapshot()
            assert snap.corruptions == snap.retries + 1 > 1
            assert snap.swaps_rejected == 1
            assert consumer.current_version == 1
