"""Graceful degradation: backpressure, timeouts, shutdown.  (Rank crashes
are the rank runtime's: tests/parallel/test_executors.py, crash table.)"""

import sys
import threading
import time

import pytest

from repro.model import ModelSession
from repro.model.session import InferenceSession
from repro.serve import (
    InferenceService,
    ServeConfig,
    ServeOverloaded,
    ServeTimeout,
    ServiceStopped,
)


class GatedSession(InferenceSession):
    """Blocks every forward until ``gate`` is set.  Exposes no ``model``
    attribute, so the service runs it through the serial fallback path --
    which makes the batcher deterministically controllable from a test."""

    def __init__(self, inner, gate):
        self._inner = inner
        self.gate = gate

    @property
    def cfg(self):
        return self._inner.cfg

    def predict_descriptor_batch(self, batch):
        assert self.gate.wait(timeout=30.0), "test gate never opened"
        return self._inner.predict_descriptor_batch(batch)

    def _load_state(self, state):
        self._inner._load_state(state)


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


@pytest.fixture()
def system(cu_dataset):
    return cu_dataset.positions, cu_dataset.species, cu_dataset.cell


class TestBackpressure:
    def test_full_queue_rejects_with_overloaded(self, cu_model, system):
        frames, species, cell = system
        gate = threading.Event()
        cfg = ServeConfig(max_batch=1, max_queue=2)
        svc = InferenceService(GatedSession(ModelSession(cu_model), gate), cfg)
        with svc:
            background = []
            for k in range(3):  # 1 occupies the batcher, 2 fill the queue
                t = threading.Thread(
                    target=lambda i=k: svc.predict(frames[i], species, cell)
                )
                t.start()
                background.append(t)
                if k == 0:  # the batcher must collect the first request
                    # before the fillers enqueue, or a *filler* rejects
                    assert _wait_until(
                        lambda: svc.stats()["requests"] >= 1
                        and svc.stats()["queue_depth"] == 0
                    ), "batcher never collected the gated request"
            assert _wait_until(
                lambda: svc.stats()["queue_depth"] >= cfg.max_queue
            ), "queue never filled"
            with pytest.raises(ServeOverloaded):
                svc.predict(frames[3], species, cell)
            assert svc.stats()["rejected"] == 1
            gate.set()
            for t in background:
                t.join()
            assert svc.stats()["responses"] == 3


class TestTimeout:
    def test_request_expires_while_batcher_busy(self, cu_model, system):
        frames, species, cell = system
        gate = threading.Event()
        cfg = ServeConfig(max_batch=1, request_timeout_s=0.2)
        svc = InferenceService(GatedSession(ModelSession(cu_model), gate), cfg)
        with svc:
            with pytest.raises(ServeTimeout):
                svc.predict(frames[0], species, cell)
            assert svc.stats()["timeouts"] == 1
            gate.set()  # let the in-flight batch finish; its requester is
            # gone, which must not crash the batcher
            pred = svc.predict(frames[1], species, cell, timeout=10.0)
        assert pred.energy == ModelSession(cu_model).predict(
            frames[1], species, cell
        ).energy

    def test_per_call_timeout_overrides_config(self, cu_model, system):
        frames, species, cell = system
        gate = threading.Event()
        cfg = ServeConfig(max_batch=1, request_timeout_s=60.0)
        svc = InferenceService(GatedSession(ModelSession(cu_model), gate), cfg)
        with svc:
            t0 = time.perf_counter()
            # the message reports the budget that expired, not the config's
            with pytest.raises(ServeTimeout, match=r"after 0\.1s"):
                svc.predict(frames[0], species, cell, timeout=0.1)
            assert time.perf_counter() - t0 < 10.0
            gate.set()

    def test_concurrent_expiries_counted_exactly(self, cu_model, system):
        """N clients timing out at once: the per-instance tally is a
        read-modify-write shared by client threads and must not lose
        updates."""
        frames, species, cell = system
        gate = threading.Event()
        n = 16
        cfg = ServeConfig(max_batch=1, max_queue=n + 1)
        svc = InferenceService(GatedSession(ModelSession(cu_model), gate), cfg)
        start = threading.Barrier(n)
        expired = []

        def client(i):
            start.wait(timeout=10.0)
            try:
                svc.predict(frames[i % len(frames)], species, cell, timeout=0.05)
            except ServeTimeout as exc:
                expired.append(str(exc))

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        svc.start()
        try:
            threads = [threading.Thread(target=client, args=(i,)) for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert not any(t.is_alive() for t in threads)
            assert svc.stats()["timeouts"] == n
        finally:
            sys.setswitchinterval(old_interval)
            gate.set()  # release the in-flight batch so stop() can join
            svc.stop()
        assert len(expired) == n
        assert all("after 0.05s" in msg for msg in expired)


class TestShutdown:
    def test_predict_after_stop_raises(self, cu_model, system):
        frames, species, cell = system
        svc = InferenceService(ModelSession(cu_model), ServeConfig())
        svc.start()
        svc.stop()
        with pytest.raises(ServiceStopped):
            svc.predict(frames[0], species, cell)

    def test_stop_without_drain_fails_queued_requests(self, cu_model, system):
        frames, species, cell = system
        gate = threading.Event()
        cfg = ServeConfig(max_batch=1, max_queue=8)
        svc = InferenceService(GatedSession(ModelSession(cu_model), gate), cfg)
        svc.start()
        outcomes: list = []

        def client(i):
            try:
                outcomes.append(("ok", svc.predict(frames[i], species, cell)))
            except ServiceStopped:
                outcomes.append(("stopped", None))

        threads = [threading.Thread(target=client, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        assert _wait_until(lambda: svc.stats()["requests"] == 3)
        stopper = threading.Thread(target=lambda: svc.stop(drain=False))
        stopper.start()
        gate.set()  # release the in-flight batch so the batcher can exit
        stopper.join()
        for t in threads:
            t.join()
        kinds = sorted(k for k, _ in outcomes)
        # the in-flight request completes; the queued ones are failed fast
        assert len(outcomes) == 3
        assert "stopped" in kinds

    def test_drain_completes_queued_requests(self, cu_model, system):
        frames, species, cell = system
        cfg = ServeConfig(max_batch=4)
        svc = InferenceService(ModelSession(cu_model), cfg)
        svc.start()
        preds = svc.predict_many(frames[:3], species, cell)
        svc.stop(drain=True)
        assert len(preds) == 3
