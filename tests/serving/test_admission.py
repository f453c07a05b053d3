"""Admission control: the bucket, the controller, and the server wiring.

The contract under test: requests beyond the rate/concurrency envelope
or past their deadline are shed *at the door* with a typed retryable
:class:`~repro.errors.OverloadError` carrying a Retry-After hint, every
shed is counted (per reason, in stats and metrics), and admitted
requests are untouched by the machinery.
"""

from __future__ import annotations

import json
import sys
import threading

import numpy as np
import pytest

from repro import Viper
from repro.errors import ConfigurationError, OverloadError
from repro.dnn.layers import Dense
from repro.dnn.losses import MSELoss
from repro.dnn.models import Sequential
from repro.dnn.optimizers import SGD
from repro.obs.metrics import MetricsRegistry
from repro.serving.admission import (
    AdmissionConfig,
    AdmissionController,
    TokenBucket,
)
from repro.serving.server import InferenceServer


class TestTokenBucket:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            TokenBucket(1.0, 0.5)

    def test_burst_drains_then_denies(self):
        bucket = TokenBucket(rate=1.0, burst=3.0)
        assert [bucket.try_acquire(0.0) for _ in range(4)] == [
            True, True, True, False,
        ]

    def test_refills_at_rate(self):
        bucket = TokenBucket(rate=2.0, burst=1.0)
        assert bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.0)
        assert bucket.try_acquire(0.5)       # 0.5s * 2/s = 1 token back

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        assert bucket.available(100.0) == 2.0

    def test_retry_after_is_deficit_over_rate(self):
        bucket = TokenBucket(rate=2.0, burst=1.0)
        assert bucket.try_acquire(0.0)
        assert bucket.retry_after(0.0) == pytest.approx(0.5)
        assert bucket.retry_after(10.0) == 0.0


class TestAdmissionConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionConfig(rate=0.0)
        with pytest.raises(ConfigurationError):
            AdmissionConfig(burst=0.0)
        with pytest.raises(ConfigurationError):
            AdmissionConfig(max_inflight=-1)
        with pytest.raises(ConfigurationError):
            AdmissionConfig(default_budget=0.0)


class TestAdmissionController:
    def make(self, **kwargs):
        return AdmissionController(AdmissionConfig(**kwargs))

    def test_admit_within_envelope(self):
        ctrl = self.make(rate=10.0, burst=4.0)
        assert ctrl.admit(0.0) is None       # no deadline resolved
        assert ctrl.admitted == 1
        assert ctrl.inflight == 1
        ctrl.release()
        assert ctrl.inflight == 0

    def test_deadline_shed_consumes_no_token(self):
        # Dead-on-arrival requests must not burn rate budget: the shed
        # happens before the bucket is touched.
        ctrl = self.make(rate=10.0, burst=2.0)
        before = ctrl.bucket.available(1.0)
        with pytest.raises(OverloadError) as exc_info:
            ctrl.admit(1.0, deadline=1.0, service_time=0.5)
        assert exc_info.value.reason == "deadline"
        assert ctrl.bucket.available(1.0) == before
        assert ctrl.shed["deadline"] == 1
        assert ctrl.inflight == 0

    def test_rate_shed_carries_retry_after(self):
        ctrl = self.make(rate=1.0, burst=1.0)
        ctrl.admit(0.0)
        with pytest.raises(OverloadError) as exc_info:
            ctrl.admit(0.0)
        assert exc_info.value.reason == "rate"
        assert exc_info.value.retryable
        assert exc_info.value.retry_after == pytest.approx(1.0)
        assert ctrl.shed["rate"] == 1

    def test_concurrency_shed_and_release(self):
        ctrl = self.make(rate=100.0, burst=10.0, max_inflight=1)
        ctrl.admit(0.0)
        with pytest.raises(OverloadError) as exc_info:
            ctrl.admit(0.0)
        assert exc_info.value.reason == "concurrency"
        ctrl.release()
        ctrl.admit(0.0)                      # slot freed: admitted again
        assert ctrl.admitted == 2
        assert ctrl.shed_total == 1

    def test_concurrent_admits_lose_no_slot(self):
        # The token, the slot and the counters share one lock: with more
        # threads than cores and a short switch interval, every attempt
        # is admitted or shed exactly once, the cap holds, and every
        # released slot comes back.
        ctrl = self.make(rate=1e9, burst=1e9, max_inflight=3)
        seen = []

        def worker():
            for _ in range(1000):
                try:
                    ctrl.admit(0.0)
                except OverloadError:
                    continue
                seen.append(ctrl.inflight)
                ctrl.release()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        snap = ctrl.snapshot()
        assert snap["admitted"] + snap["concurrency"] == 8 * 1000
        assert snap["admitted"] == len(seen) and max(seen) <= 3
        assert snap["inflight"] == 0

    def test_default_budget_resolves_deadlines(self):
        ctrl = self.make(rate=100.0, burst=10.0, default_budget=0.5)
        assert ctrl.admit(2.0) == pytest.approx(2.5)
        # An explicit deadline wins over the default budget.
        assert ctrl.admit(2.0, deadline=9.0) == 9.0
        with pytest.raises(OverloadError):
            ctrl.admit(2.0, service_time=0.6)  # 2.6 > 2.5 default deadline

    def test_every_shed_is_counted_once(self):
        ctrl = self.make(rate=1.0, burst=1.0)
        ctrl.admit(0.0)
        for _ in range(5):
            with pytest.raises(OverloadError):
                ctrl.admit(0.0)
        snap = ctrl.snapshot()
        assert snap["rate"] == 5
        assert snap["admitted"] == 1
        assert ctrl.shed_total == 5
        assert len(ctrl.decisions) == 5

    def test_shed_log_is_jsonl(self, tmp_path):
        ctrl = self.make(rate=1.0, burst=1.0)
        ctrl.admit(0.0)
        with pytest.raises(OverloadError):
            ctrl.admit(0.0, deadline=99.0)
        path = tmp_path / "sheds.jsonl"
        assert ctrl.write_shed_log(path) == 1
        entry = json.loads(path.read_text().splitlines()[0])
        assert entry["reason"] == "rate"
        assert entry["deadline"] == 99.0
        assert entry["retry_after"] == pytest.approx(1.0)

    def test_shed_metric_and_stats_hook(self):
        metrics = MetricsRegistry()
        with Viper(metrics=metrics) as viper:
            ctrl = AdmissionController(
                AdmissionConfig(rate=1.0, burst=1.0),
                metrics=metrics,
                stats=viper.stats,
                name="s0",
            )
            ctrl.admit(0.0)
            with pytest.raises(OverloadError):
                ctrl.admit(0.0)
            counter = metrics.counter(
                "server_requests_shed_total", server="s0", reason="rate"
            )
            assert counter.value == 1
            assert viper.stats.snapshot().requests_shed == 1


def builder():
    model = Sequential([Dense(1, name="d")], input_shape=(2,), seed=3)
    model.compile(SGD(0.01), MSELoss())
    return model


@pytest.fixture
def fleet():
    """A Viper + one admission-armed server on a tight envelope."""
    viper = Viper(metrics=MetricsRegistry())
    consumer = viper.consumer(model_builder=builder)
    consumer.subscribe()
    server = InferenceServer(
        consumer, "m", t_infer=0.01,
        admission=AdmissionConfig(rate=10.0, burst=2.0),
        metrics=viper.metrics,
    )
    yield viper, server
    viper.close()


class TestServerIntegration:
    X = np.ones((1, 2), dtype=np.float32)

    def test_burst_beyond_envelope_is_shed(self, fleet):
        _viper, server = fleet
        served = 0
        sheds = 0
        for _ in range(6):                   # all at t=0: burst depth is 2
            try:
                server.handle(self.X)
                served += 1
            except OverloadError:
                sheds += 1
        assert served == 2
        assert sheds == 4
        assert server.admission.shed["rate"] == 4

    def test_expired_deadline_shed_before_scoring(self, fleet):
        _viper, server = fleet
        server.advance_clock(5.0)
        requests_before = len(server.requests)
        with pytest.raises(OverloadError) as exc_info:
            server.handle(self.X, deadline=5.005)  # t_infer=0.01 can't make it
        assert exc_info.value.reason == "deadline"
        assert len(server.requests) == requests_before  # never scored
        assert server.admission.shed["deadline"] == 1

    def test_arrival_advances_clock_and_refills(self, fleet):
        _viper, server = fleet
        server.handle(self.X, arrival=0.0)
        server.handle(self.X, arrival=0.0)
        with pytest.raises(OverloadError):
            server.handle(self.X, arrival=0.0)
        # 0.2s at 10 req/s mints two tokens: the later arrival is served.
        _, req = server.handle(self.X, arrival=0.3)
        assert req.sim_time >= 0.3

    def test_serve_batch_skips_shed_requests(self, fleet):
        _viper, server = fleet
        xs = [self.X] * 6
        arrivals = [0.0] * 6                 # one instantaneous burst
        served = server.serve_batch(
            xs, refresh_between=False, budget=1.0, arrivals=arrivals
        )
        assert len(served) == 2              # burst depth
        assert server.admission.shed_total == 4

    def test_sheds_land_in_stats_and_metrics(self, fleet):
        viper, server = fleet
        for _ in range(4):
            try:
                server.handle(self.X, arrival=0.0)
            except OverloadError:
                pass
        assert viper.stats.snapshot().requests_shed == 2
        counter = viper.metrics.counter(
            "server_requests_shed_total", server=server.name, reason="rate"
        )
        assert counter.value == 2

    def test_admission_off_by_default(self, fleet):
        viper, _server = fleet
        consumer = viper.consumer(model_builder=builder)
        consumer.subscribe()
        plain = InferenceServer(consumer, "m")
        assert plain.admission is None
        for _ in range(50):                  # nothing is ever shed
            plain.handle(self.X)

    def test_prebuilt_controller_is_adopted(self, fleet):
        viper, _server = fleet
        ctrl = AdmissionController(AdmissionConfig(rate=5.0, burst=1.0))
        consumer = viper.consumer(model_builder=builder)
        consumer.subscribe()
        server = InferenceServer(consumer, "m", admission=ctrl)
        assert server.admission is ctrl
