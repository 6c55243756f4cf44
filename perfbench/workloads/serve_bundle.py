"""``serve_bundle``: the serve queue -> batch -> worker path plus model
inference, no training in the process.

``InferenceService(ModelSession(model), ServeConfig(max_batch=8,
max_delay_s=0.002))``; 2 client threads, each calling ``predict_many`` on
bundles of 4 *unique* jittered frames (sigma = 0.01 A, seeded), so every
request misses both caches.  MD clients wait for forces before stepping,
so both phases are closed loops:

* capacity: rounds of 2 x 100 bundles back to back;
* paced: the same 2 clients on a schedule (60 bundles/s in total, about a
  third of capacity), latency timed from the *due* time, generator
  lateness reported; the tail is the median p90 of 100-bundle windows, so
  a single stall cannot set it.  The traced run walks the 60 / 100 / 140
  ladder.
"""

from __future__ import annotations

import itertools
import threading
import time

import numpy as np

from .. import adapter, stats
from ..harness import Bench
from . import common

FRAMES_PER_TEMPERATURE = 8
BUNDLE = 4
CLIENTS = 2
JITTER = 0.01
CLOSED_BUNDLES = 100
ROUNDS_PER_10S = 5
PACED_RATE = 60.0
#: paced rate (bundles/s) -> the per-layer metric holding its p90
LADDER = {
    60.0: "serve.p90_ms_at_60",
    100.0: "serve.p90_ms_at_100",
    140.0: "serve.p90_ms_at_140",
}
LIMIT_MS = 25.0
#: bundles per window of the paced stream: enough for a p90 of its own
WINDOW = 100
CHECK_BUNDLES = 32


class _Fixture:
    """Inputs, the model, and the service under test."""

    def __init__(self, bench: Bench):
        self.bench = bench
        self.inputs = adapter.cu_inputs(bench.seed, FRAMES_PER_TEMPERATURE)
        self.cfg = adapter.net_config(self.inputs)
        self.model = adapter.new_model(self.inputs, self.cfg, bench.seed)
        self.session = adapter.ModelSession(self.model)
        self.service = adapter.InferenceService(
            self.session, adapter.ServeConfig(max_batch=8, max_delay_s=0.002)
        )
        self.species, self.cell = self.inputs.species, self.inputs.cell
        self.failures = 0
        self._lock = threading.Lock()

    def bundles(self, client: int, phase: int, n: int) -> list[np.ndarray]:
        """``n`` bundles of unique frames for one client in one phase."""
        base = self.inputs.test.positions
        rng = np.random.default_rng([self.bench.seed, client, phase])
        return [
            base[rng.integers(0, len(base), BUNDLE)]
            + rng.normal(scale=JITTER, size=(BUNDLE,) + base.shape[1:])
            for _ in range(n)
        ]

    def call(self, frames: np.ndarray, **attrs):
        """One bundle through the service; a refused or failed bundle is a
        failed operation (and misses any latency limit)."""
        try:
            with self.bench.rec.span("serve.bundle", "serve", **attrs):
                return self.service.predict_many(frames, self.species, self.cell)
        except adapter.ServeError:
            with self._lock:
                self.failures += 1
            return None

    def run_clients(self, target, *args) -> None:
        threads = [
            threading.Thread(target=target, args=(k,) + args, name=f"perfbench-client-{k}")
            for k in range(CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()


def _closed_round(fx: _Fixture, phase: int, n_bundles: int) -> tuple[float, list[float]]:
    """Every client sends its next bundle as soon as the last one returned.
    Returns (wall of the round, bundle latencies in ms)."""
    work = [fx.bundles(k, phase, n_bundles) for k in range(CLIENTS)]
    lat = [[] for _ in range(CLIENTS)]

    def client(k: int) -> None:
        for i, frames in enumerate(work[k]):
            t0 = time.perf_counter()
            fx.call(frames, client=k, req=i, phase=phase)
            lat[k].append((time.perf_counter() - t0) * 1e3)

    t0 = time.perf_counter()
    fx.run_clients(client)
    wall = time.perf_counter() - t0
    fx.bench.attempt(CLIENTS * n_bundles)
    return wall, [x for per in lat for x in per]


def _paced(fx: _Fixture, phase: int, rate: float, seconds: float) -> dict:
    """Closed loop on a schedule: client ``k`` owes bundle ``i`` at
    ``start + (i + k / CLIENTS) * period``; it sends then, or as soon as
    its previous bundle returned if that is later.  Latency runs from the
    due time, so a stall is charged to every bundle it delays."""
    period = CLIENTS / rate
    n = int(round(seconds / period))
    work = [fx.bundles(k, phase, n) for k in range(CLIENTS)]
    lat = [[] for _ in range(CLIENTS)]
    late = [[] for _ in range(CLIENTS)]
    start = time.perf_counter() + 0.05

    def client(k: int) -> None:
        for i, frames in enumerate(work[k]):
            due = start + (i + k / CLIENTS) * period
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            late[k].append(max(time.perf_counter() - due, 0.0) * 1e3)
            fx.call(frames, client=k, req=i, phase=phase, rate=rate)
            lat[k].append((time.perf_counter() - due) * 1e3)

    failures0 = fx.failures
    fx.run_clients(client)
    fx.bench.attempt(CLIENTS * n)
    late_all = [x for per in late for x in per]
    last = [x for per in late for x in per[-max(len(per) // 4, 1):]]
    # consecutive stretches of the schedule, WINDOW bundles each
    n_windows = max(CLIENTS * n // WINDOW, 1)
    bounds = [w * n // n_windows for w in range(n_windows + 1)]
    return {
        "rate": rate,
        "lat_ms": [x for per in lat for x in per],
        "windows": [[x for per in lat for x in per[lo:hi]]
                    for lo, hi in zip(bounds, bounds[1:])],
        "late_ms": late_all,
        "failures": fx.failures - failures0,
        # more than a period behind at the end: the backlog is growing
        "backlog": stats.median(last) > period * 1e3,
    }


def _setup(bench: Bench) -> _Fixture:
    fx = _Fixture(bench)
    fx.service.start()
    with bench.rec.paused():
        _closed_round(fx, phase=0, n_bundles=40)
        _paced(fx, phase=1, rate=PACED_RATE, seconds=1.5)
    bench.end_setup()
    return fx


def _check_against_direct(fx: _Fixture) -> None:
    """A sample of bundles through the service equals the direct session
    bit for bit."""
    same = True
    for frames in fx.bundles(0, 2, CHECK_BUNDLES):
        served = fx.call(frames)
        direct = fx.session.predict_many(frames, fx.species, fx.cell)
        same &= served is not None and all(
            s.energy == d.energy and np.array_equal(s.forces, d.forces)
            for s, d in zip(served, direct)
        )
    fx.bench.attempt(CHECK_BUNDLES)
    fx.bench.check("serve_bundle.equals_direct_session", same)


def _served_rmse(fx: _Fixture) -> float:
    """Force RMSE of what the service answers against reference labels."""
    test = fx.inputs.test
    preds = fx.service.predict_many(test.positions, fx.species, fx.cell)
    served = np.stack([p.forces for p in preds])
    return float(np.sqrt(np.mean((served - test.forces) ** 2)))


def _frames_to_batch_passes(fx: _Fixture):
    """The serve layer's data path alone, as drain passes: 16 unique bundles
    (made before the pass is timed) through ``frames_to_batch``."""
    for k in itertools.count():
        work = fx.bundles(0, 1000 + k, 16)

        def one_pass(work=work) -> int:
            for bundle in work:
                adapter.frames_to_batch(bundle, fx.species, fx.cell, fx.cfg)
            return len(work) * BUNDLE

        yield one_pass


def _finish(fx: _Fixture) -> dict:
    service_stats = fx.service.stats()
    fx.service.stop()
    fx.bench.check("serve_bundle.no_failed_bundles", fx.failures == 0, f"{fx.failures}")
    fx.bench.attempt(0, fx.failures)
    fx.bench.check("serve_bundle.no_cache_hits", service_stats["cache_hits"] == 0,
                   f"{service_stats['cache_hits']}")
    return service_stats


def run(bench: Bench) -> None:
    fx = _setup(bench)
    walls, frames = [], 0
    for r in range(bench.rounds(ROUNDS_PER_10S)):
        wall, lat = _closed_round(fx, phase=10 + r, n_bundles=CLOSED_BUNDLES)
        walls.append(wall)
        frames += len(lat) * BUNDLE
    paced = _paced(fx, phase=3, rate=PACED_RATE, seconds=bench.seconds)
    bench.notes["generator_late_ms_p99"] = stats.percentile(paced["late_ms"], 99)
    bench.check("serve_bundle.no_growing_backlog", not paced["backlog"])
    _check_against_direct(fx)
    rmse = _served_rmse(fx)
    _finish(fx)
    bench.finish_e2e(
        job_walls=walls,
        op_ms=paced["lat_ms"],
        op_windows=paced["windows"],
        frames=(frames, sum(walls)),
        rmse=rmse,
    )


def trace(bench: Bench) -> None:
    rec = bench.rec
    fx = _setup(bench)

    # the ladder: latency rises before throughput stops rising
    seconds = max(bench.seconds * 0.3, 2.0)
    phases = [_paced(fx, 20 + i, rate, seconds) for i, rate in enumerate(LADDER)]
    ok_rates = [0.0]
    for p in phases:
        bench.set(LADDER[p["rate"]], stats.percentile(p["lat_ms"], 90), p["lat_ms"])
        if stats.tail(p["lat_ms"])[1] <= LIMIT_MS and not p["failures"] and not p["backlog"]:
            ok_rates.append(p["rate"])
    bench.set("serve.max_ok_rate", max(ok_rates))
    late = [x for p in phases for x in p["late_ms"]]
    bench.set("serve.generator_late_ms_p99", stats.percentile(late, 99), late)

    # the same frames straight through the session: what serving adds
    work = fx.bundles(0, 20, len(phases[0]["lat_ms"]) // CLIENTS)[:40]
    for frames in work:
        with rec.span("model.predict_many", "model"):
            fx.session.predict_many(frames, fx.species, fx.cell)
    direct = rec.durations_ms("model.predict_many")
    bench.set("serve.overhead_ms_per_bundle",
              stats.median(phases[0]["lat_ms"]) - stats.median(direct))
    for frames in work[:10]:
        for pos in frames:
            with rec.span("serve.fingerprint", "serve"):
                adapter.frame_fingerprint(pos, fx.cell, fx.cfg.rcut, fx.cfg.nmax)
            with rec.span("md.neighbor_table", "md"):
                adapter.neighbor_table(pos, fx.cell, fx.cfg.rcut, fx.cfg.nmax)
        with rec.span("serve.frames_to_batch", "serve"):
            batch = adapter.frames_to_batch(frames, fx.species, fx.cell, fx.cfg)
    ms = rec.durations_ms("serve.fingerprint")
    bench.set("serve.fingerprint_ms_per_frame", stats.median(ms), ms)
    ms = rec.durations_ms("md.neighbor_table")
    bench.set("md.neighbor_table_ms", stats.median(ms), ms)
    ms = [d / BUNDLE for d in rec.durations_ms("serve.frames_to_batch")]
    bench.set("serve.frames_to_batch_ms_per_frame", stats.median(ms), ms)
    common.trace_model_eval(bench, fx.model, fx.inputs, batch)
    bench.set("train.final_force_rmse", _served_rmse(fx))
    common.trace_drain(bench, _frames_to_batch_passes(fx))

    _check_against_direct(fx)
    service_stats = _finish(fx)
    bench.set("serve.batch_size_mean", service_stats["batch_occupancy"]["mean"])
    bench.set("serve.cache_hit_ratio",
              service_stats["cache_hits"] / max(service_stats["requests"], 1))
    bench.set("serve.rejected", service_stats["rejected"])
    bench.set("serve.timeouts", service_stats["timeouts"])
