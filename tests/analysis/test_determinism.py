"""Determinism auditor: clean certification on the real stack, and each
probe fires on a seeded violation."""

import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis import audit_determinism, run_backend, state_fingerprint
from repro.analysis import determinism as det
from repro.analysis.determinism import (
    BackendTrace,
    SharedStateProbe,
    _probe_rank_order,
    _probe_sink_leak,
)
from repro.autograd.instrument import KernelCounter, push_sink, remove_sink
from repro.runtime import TaskResult, WorkerTelemetry


class TestAuditClean:
    def test_three_backends_certified(self, cu_dataset, small_cfg):
        report = audit_determinism(
            world_size=2, steps=3, dataset=cu_dataset, cfg=small_cfg
        )
        assert report.ok, report.render()
        assert report.metrics["fingerprints_compared"] == 6
        assert report.metrics["write_epochs"] > 0
        assert set(report.checks_run) == {
            "bit-identical-p", "rank-order", "replica-sync",
            "single-writer-p", "sink-leak", "online-promotion",
        }
        # the online row compared something real: a swap happened, and
        # its (weights, force RMSE, ledger) agreed across the backends
        assert len(report.metrics["online_promotion"]) == 16

    def test_fingerprints_reproducible_and_seed_sensitive(
        self, cu_dataset, small_cfg
    ):
        a = run_backend("serial", cu_dataset, small_cfg, world_size=2, steps=2)
        b = run_backend("serial", cu_dataset, small_cfg, world_size=2, steps=2)
        c = run_backend("serial", cu_dataset, small_cfg, world_size=2, steps=2,
                        seed=11)
        assert a.fingerprints == b.fingerprints
        assert a.fingerprints != c.fingerprints


class TestProbesFire:
    def test_divergence_detected(self, cu_dataset, small_cfg, monkeypatch):
        """A perturbed fingerprint trace must surface as bit-identical-p
        with the first diverging step named."""
        real = det.run_backend

        def tampered(backend, *args, **kwargs):
            trace = real("serial", *args, **kwargs)
            trace.backend = backend
            if backend == "thread":
                trace.fingerprints[1] = "deadbeef" * 8
            return trace

        monkeypatch.setattr(det, "run_backend", tampered)
        report = audit_determinism(
            world_size=2, steps=2, backends=("serial", "thread"),
            dataset=cu_dataset, cfg=small_cfg,
        )
        findings = [f for f in report.findings if f.rule == "bit-identical-p"]
        assert len(findings) == 1
        assert findings[0].context == {"backend": "thread", "step": 1}
        assert report.exit_code == 1

    def test_online_promotion_divergence_detected(
        self, cu_dataset, small_cfg, monkeypatch
    ):
        """A backend whose trainer ranks promote different weights (or a
        different force RMSE / ledger) surfaces as online-promotion."""
        monkeypatch.setattr(
            det, "run_backend", lambda backend, *a, **k: BackendTrace(backend)
        )
        monkeypatch.setattr(
            det, "online_promotion_fingerprint",
            lambda backend, *a, **k: "feed" * 16 if backend == "process" else "beef" * 16,
        )
        report = audit_determinism(
            world_size=2, steps=1, backends=("serial", "thread", "process"),
            dataset=cu_dataset, cfg=small_cfg,
        )
        findings = [f for f in report.findings if f.rule == "online-promotion"]
        assert [f.context for f in findings] == [{"backend": "process"}]
        assert report.exit_code == 1

    def test_rank_order_violation_detected(self):
        results = [
            TaskResult(payload=np.zeros(3), telemetry=WorkerTelemetry(rank=1)),
            TaskResult(payload=np.zeros(3), telemetry=WorkerTelemetry(rank=0)),
        ]
        dist = SimpleNamespace(
            executor=SimpleNamespace(broadcast=lambda m: results),
            model=SimpleNamespace(
                params=SimpleNamespace(flatten=lambda: np.zeros(3))
            ),
        )
        trace = BackendTrace(backend="stub")
        _probe_rank_order(dist, trace, step=0)
        assert {f.rule for f in trace.findings} == {"rank-order"}

    def test_replica_divergence_detected(self):
        results = [
            TaskResult(payload=np.ones(3), telemetry=WorkerTelemetry(rank=0)),
        ]
        dist = SimpleNamespace(
            executor=SimpleNamespace(broadcast=lambda m: results),
            model=SimpleNamespace(
                params=SimpleNamespace(flatten=lambda: np.zeros(3))
            ),
        )
        trace = BackendTrace(backend="stub")
        _probe_rank_order(dist, trace, step=4)
        assert {f.rule for f in trace.findings} == {"replica-sync"}
        assert trace.findings[0].context["step"] == 4

    def test_multi_writer_detected(self):
        # both writers are held inside update() at once, so the thread
        # ids are necessarily distinct and the write epochs overlap
        barrier = threading.Barrier(2, timeout=10)
        kalman = SimpleNamespace(update=lambda g, e, s: barrier.wait())
        probe = SharedStateProbe(kalman)
        threads = [
            threading.Thread(target=kalman.update, args=(None, 0.0, 1.0))
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        probe.uninstall()
        assert len(probe.writer_threads) == 2
        assert probe.write_epochs == 2
        assert probe.overlaps >= 1

    def test_sink_leak_detected(self):
        leaked = KernelCounter()
        push_sink(leaked)
        try:
            trace = BackendTrace(backend="stub")
            _probe_sink_leak(trace)
        finally:
            remove_sink(leaked)
        assert {f.rule for f in trace.findings} == {"sink-leak"}
        clean = BackendTrace(backend="stub")
        _probe_sink_leak(clean)
        assert not clean.findings


class TestFingerprint:
    def test_covers_optimizer_state_and_weights(self, cu_dataset, small_cfg):
        from repro.model import DeePMD
        from repro.optim import FEKF, KalmanConfig

        model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        opt = FEKF(model, kalman_cfg=KalmanConfig(blocksize=1024), seed=7)
        fp0 = state_fingerprint(opt, model)
        assert fp0 == state_fingerprint(opt, model)  # pure
        opt.kalman.lam *= 0.5  # perturb one scalar of filter state
        assert state_fingerprint(opt, model) != fp0
