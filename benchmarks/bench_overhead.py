"""The one wall-clock gate in the repo: what an observer costs.

Performance numbers are perfbench metrics (``BENCHMARK.json``) and paper
claims are tier-1 assertions (``tests/harness``).  What is left to time
here is the promise every observer makes -- a live tracer over training,
a live tracer over the serving loop, the 50 ms health sampler and the
lock-order recorder + race checker -- that watching a run costs under
``BUDGET`` of it.  One measurement (:func:`overhead`), one budget, one serve driver.
"""

import contextlib
import threading
import time

import numpy as np
import pytest

from repro.analysis.concurrency import LockOrderRecorder, RaceChecker
from repro.model import DeePMD, ModelSession
from repro.optim import make_optimizer
from repro.serve import InferenceService, ServeConfig
from repro.telemetry import Tracer
from repro.telemetry.monitor import HealthMonitor
from repro.train import Trainer

BUDGET = 0.05
CLIENTS = 8
PER_CLIENT = 6


def overhead(run_off, run_on, repeats):
    """Relative wall cost of ``run_on`` over ``run_off`` (callables
    returning seconds).  The arms are interleaved so machine-load drift
    and cache warm-up hit both equally.  Median per arm, not min: how 8
    client threads coalesce into batches varies run to run, so the min of
    a serve arm is its luckiest batching, which does not converge (400
    pairs on a 2-vCPU host: min-of-80 reads > 5 % in ~10 % of windows
    for an observer whose true cost is ~1 %, median-of-40 in none)."""
    off, on = zip(*[(run_off(), run_on()) for _ in range(repeats)])
    return float(np.median(on) / np.median(off)) - 1.0


def _train_wall(cu_data, cfg, observer=None):
    model = DeePMD.for_dataset(cu_data, cfg, seed=1)
    opt = make_optimizer("fekf", model, blocksize=2048, fused_update=True)
    trainer = Trainer(model, opt, cu_data, None, batch_size=8, seed=0,
                      eval_frames=4)
    t0 = time.perf_counter()
    with observer or contextlib.nullcontext():
        trainer.run(max_epochs=2)
    return time.perf_counter() - t0


# -- serve observers: each opens the service and what watches it ---------
@contextlib.contextmanager
def _plain(make_service):
    with make_service() as svc:
        yield svc


@contextlib.contextmanager
def _traced(make_service):
    # the service adopts the tracer that is ambient when it starts
    with Tracer(keep_events=False), make_service() as svc:
        yield svc


@contextlib.contextmanager
def _monitored(make_service):
    with make_service() as svc:
        mon = HealthMonitor(interval_s=0.05)
        mon.watch_service(svc)
        with mon:
            yield svc


@contextlib.contextmanager
def _lock_recorded(make_service):
    with make_service() as svc, LockOrderRecorder(), RaceChecker():
        yield svc


def _serve_wall(model, cu_data, observed):
    """CLIENTS threads x PER_CLIENT requests against one micro-batching
    service; fewer distinct frames than requests, so repeats exercise
    the caches the way rejected MC moves and committee queries do."""
    pool = [np.ascontiguousarray(cu_data.positions[t])
            for t in range(CLIENTS * PER_CLIENT // 3)]
    barrier = threading.Barrier(CLIENTS + 1)

    def make_service():
        return InferenceService(
            ModelSession(model), ServeConfig(max_batch=CLIENTS, max_delay_s=0.002)
        )

    with observed(make_service) as svc:
        def client(k):
            barrier.wait()
            for j in range(PER_CLIENT):
                svc.predict(pool[(k + j) % len(pool)], cu_data.species,
                            cu_data.cell)

        threads = [threading.Thread(target=client, args=(k,))
                   for k in range(CLIENTS)]
        for t in threads:
            t.start()
        barrier.wait()
        t0 = time.perf_counter()
        for t in threads:
            t.join()
        return time.perf_counter() - t0


def _arms(observer, cu_data, cfg):
    """``(run_off, run_on, repeats)`` for one observer; repeats are
    sized so each case measures for 5-15 s (a serve run is ~50 ms, a
    train run ~1 s)."""
    if observer == "tracer":
        return (lambda: _train_wall(cu_data, cfg),
                lambda: _train_wall(cu_data, cfg, Tracer(keep_events=False)), 9)
    model = DeePMD.for_dataset(cu_data, cfg, seed=1)
    watch = {"serve-tracer": _traced, "health-monitor": _monitored,
             "lock-recorder": _lock_recorded}[observer]
    return (lambda: _serve_wall(model, cu_data, _plain),
            lambda: _serve_wall(model, cu_data, watch), 41)


@pytest.mark.parametrize("observer", [
    "tracer", "serve-tracer", "health-monitor", "lock-recorder",
])
def test_observer_overhead_within_budget(observer, cu_data, cfg):
    run_off, run_on, repeats = _arms(observer, cu_data, cfg)
    cost = overhead(run_off, run_on, repeats)
    print(f"\n{observer} overhead: {cost:+.1%}")
    assert cost < BUDGET, (
        f"{observer} overhead {cost:.1%} exceeds the {BUDGET:.0%} budget"
    )
