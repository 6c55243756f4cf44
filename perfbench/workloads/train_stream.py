"""``train_stream``: the data and parallel layers.

A 1 229-frame Cu corpus ingested into a ``ShardedFrameStore`` (shard 128,
``max_open_shards=2``, ``neighbor_cache_frames=256``, loader window 256).

* drain (traced run): whole epochs of ``make_loader(store, 32,
  prefetch=False)`` with no optimizer, each on a freshly opened store --
  mmap reads, CRC checks and cold neighbor tables; the only place data
  does most of the work.
* train: ``DistributedFEKF(world_size=2, executor="thread")`` fed by the
  prefetching loader (thread executor, 1 worker, depth 2), 14 steps per
  round from a fresh model, the store reopened per round (cold caches).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from .. import adapter, stats
from ..harness import Bench
from . import common

FRAMES_PER_TEMPERATURE = 512
BATCH = 32
SHARD = 128
MAX_OPEN_SHARDS = 2
NEIGHBOR_CACHE_FRAMES = 256
WINDOW = 256
WORLD = 2
STEPS = 14
ROUNDS_PER_10S = 3
CHECK_STEPS = 3
HAND_STEPS = 6


def _ingest(bench: Bench, inputs) -> str:
    path = os.path.join(bench.workdir(), "store")
    t0 = time.perf_counter()
    with bench.rec.span("data.ingest", "data", frames=inputs.train.n_frames):
        store = adapter.ShardedFrameStore.ingest(
            path, inputs.train, shard_capacity=SHARD, max_open_shards=MAX_OPEN_SHARDS
        )
    bench.notes["ingest_s"] = time.perf_counter() - t0
    store.close()
    return path


def _open(path: str):
    store = adapter.ShardedFrameStore.open(path, max_open_shards=MAX_OPEN_SHARDS)
    store.neighbor_cache_frames = NEIGHBOR_CACHE_FRAMES
    return store


def _loader(source, cfg, seed: int, prefetch: bool):
    return adapter.make_loader(
        source, BATCH, cfg=cfg, seed=seed, window=WINDOW,
        prefetch=prefetch, executor="thread", workers=1, depth=2,
    )


@dataclass
class _Round:
    """What one streamed training round measured."""

    wall: float = 0.0
    step_ms: list = field(default_factory=list)
    wait_ms: list = field(default_factory=list)
    mapped_peak: int = 0
    fallbacks: int = 0
    weights_at_check: object = None


def _train_round(bench: Bench, inputs, cfg, path: str) -> tuple[_Round, object, object]:
    """Fresh model, freshly opened store, ``STEPS`` streamed steps.
    Returns (measurements, model, optimizer) -- the caller closes ``opt``."""
    out = _Round()
    store = _open(path)
    model = adapter.new_model(inputs, cfg, bench.seed)
    opt = adapter.DistributedFEKF(
        model, world_size=WORLD, kalman_cfg=adapter.kalman_config(), executor="thread"
    )
    crashes = adapter.CrashCounter(opt.executor)
    loader = _loader(store, cfg, bench.seed, prefetch=True)
    loader.warm_up()
    t_start = time.perf_counter()
    stream = loader.iter_batches(cfg, 0)
    try:
        for k in range(STEPS):
            t0 = time.perf_counter()
            with bench.rec.span("data.wait", "data", step=k):
                _, batch = next(stream)
            t1 = time.perf_counter()
            with bench.rec.span("parallel.step", "parallel", step=k):
                opt.step_batch(batch)
            t2 = time.perf_counter()
            out.wait_ms.append((t1 - t0) * 1e3)
            out.step_ms.append((t2 - t1) * 1e3)
            out.mapped_peak = max(out.mapped_peak, store.cache_stats()["mapped_bytes"])
            if k + 1 == CHECK_STEPS:
                out.weights_at_check = model.params.flatten().copy()
    finally:
        stream.close()
    out.wall = time.perf_counter() - t_start
    out.fallbacks = crashes.count
    bench.notes["prefetch_stats"] = dict(loader.stats)
    bench.notes["record_bytes"] = store.record_bytes
    loader.close()
    store.close()
    return out, model, opt


def _reference_weights(bench: Bench, inputs, cfg) -> np.ndarray:
    """Weights after ``CHECK_STEPS`` steps from memory, through the
    synchronous loader and serial ranks at the same world size."""
    model = adapter.new_model(inputs, cfg, bench.seed)
    opt = adapter.DistributedFEKF(
        model, world_size=WORLD, kalman_cfg=adapter.kalman_config(), executor="serial"
    )
    loader = _loader(inputs.train, cfg, bench.seed, prefetch=False)
    for k, (_, batch) in enumerate(loader.iter_batches(cfg, 0)):
        if k == CHECK_STEPS:
            break
        opt.step_batch(batch)
    opt.close()
    return model.params.flatten()


def _check_round(bench: Bench, r: _Round, reference: np.ndarray, record_bytes: int):
    bench.check("train_stream.store_prefetch_threads_bit_identical",
                np.array_equal(r.weights_at_check, reference))
    bench.check("train_stream.no_serial_fallbacks", r.fallbacks == 0, f"{r.fallbacks}")
    bench.check("train_stream.mapped_within_two_shards",
                r.mapped_peak <= MAX_OPEN_SHARDS * SHARD * record_bytes,
                f"{r.mapped_peak} bytes")


def run(bench: Bench) -> None:
    inputs = adapter.cu_inputs(bench.seed, FRAMES_PER_TEMPERATURE)
    cfg = adapter.net_config(inputs)
    path = _ingest(bench, inputs)
    warm, _, opt = _train_round(bench, inputs, cfg, path)
    opt.close()
    _check_round(bench, warm, _reference_weights(bench, inputs, cfg),
                 bench.notes["record_bytes"])
    bench.end_setup()

    walls, step_ms = [], []
    for _ in range(bench.rounds(ROUNDS_PER_10S)):
        r, model, opt = _train_round(bench, inputs, cfg, path)
        opt.close()
        walls.append(r.wall)
        step_ms += r.step_ms
        bench.attempt(STEPS + 1)
        bench.check("train_stream.round_weights_repeat",
                    np.array_equal(r.weights_at_check, warm.weights_at_check))
        bench.check("train_stream.no_serial_fallbacks", r.fallbacks == 0)

    bench.finish_e2e(
        job_walls=walls,
        op_ms=step_ms,
        frames=(len(step_ms) * BATCH, sum(walls)),
        rmse=common.held_out_rmse(model, inputs),
    )


def trace(bench: Bench) -> None:
    rec = bench.rec
    inputs = adapter.cu_inputs(bench.seed, FRAMES_PER_TEMPERATURE)
    cfg = adapter.net_config(inputs)
    path = _ingest(bench, inputs)
    bench.set("data.ingest_frames_per_s", inputs.train.n_frames / bench.notes["ingest_s"])
    with rec.paused():
        warm, _, opt = _train_round(bench, inputs, cfg, path)
        opt.close()
    bench.end_setup()

    # -- parallel: one traced round, read from outside ---------------------
    r, model, opt = _train_round(bench, inputs, cfg, path)
    bench.attempt(STEPS + 1)
    record_bytes = bench.notes["record_bytes"]
    _check_round(bench, r, warm.weights_at_check, record_bytes)
    ledger, timing = opt.comm.ledger, opt.timing
    bench.set("parallel.reduce_bytes_per_step", ledger.bytes_sent_per_rank / STEPS)
    bench.set("parallel.reduce_calls_per_step", ledger.calls / STEPS)
    expected = 5 * adapter.allreduce_volume_bytes(model.num_params, WORLD)
    scalars = 5 * 8.0 * 2 * (WORLD - 1) / WORLD  # the five ABE allreduces
    bench.check("train_stream.reduce_bytes_match_closed_form",
                ledger.bytes_sent_per_rank / STEPS == expected + scalars,
                f"{ledger.bytes_sent_per_rank / STEPS} vs {expected + scalars}")
    bench.set("parallel.round_overhead_ms",
              stats.median(r.step_ms) - (timing.compute_s + timing.kalman_s) * 1e3 / STEPS)
    bench.set("parallel.serial_fallbacks", r.fallbacks)
    for _ in range(20):
        with rec.span("parallel.executor_roundtrip", "parallel"):
            opt.executor.broadcast("get_weights")
    ms = rec.durations_ms("parallel.executor_roundtrip")
    bench.set("parallel.executor_roundtrip_ms", stats.median(ms), ms)
    opt.close()
    comm = adapter.SimCommunicator(WORLD)
    grads = [np.ones(model.num_params) * k for k in range(WORLD)]
    for _ in range(20):
        with rec.span("parallel.ring_allreduce", "parallel"):
            comm.ring_allreduce(grads)
    ms = rec.durations_ms("parallel.ring_allreduce")
    bench.set("parallel.ring_allreduce_ms", stats.median(ms), ms)

    # -- data: the loader's pieces on a cold store -------------------------
    prefetch = bench.notes["prefetch_stats"]
    bench.set("data.wait_ms_per_step", stats.median(r.wait_ms), r.wait_ms)
    bench.set("data.prefetch_hit_ratio", prefetch["hits"] / max(prefetch["batches"], 1))
    bench.set("data.mapped_peak_bytes", r.mapped_peak)
    bench.set("data.bytes_read_per_frame", record_bytes)
    common.trace_drain(bench, common.epoch_passes(
        common.cold_store_loaders(
            lambda: _open(path),
            lambda store: _loader(store, cfg, bench.seed, prefetch=False)),
        cfg,
    ))
    store = _open(path)
    loader = _loader(store, cfg, bench.seed, prefetch=False)
    order = list(loader.epoch(0))[:8]
    for idx in order:
        with rec.span("data.make_batch_cold", "data"):
            adapter.make_batch(store, idx, cfg)
    for idx in order:
        with rec.span("data.make_batch_warm", "data"):
            batch = adapter.make_batch(store, idx, cfg)
    for idx in order:
        with rec.span("data.get_frames", "data"):
            frames = store.get_frames(idx)
    for pos in frames.positions[:16]:
        with rec.span("md.neighbor_table", "md"):
            adapter.neighbor_table(pos, store.cell, cfg.rcut, cfg.nmax)
    store.close()
    for span_name, metric in (
        ("data.make_batch_cold", "data.make_batch_cold_ms"),
        ("data.make_batch_warm", "data.make_batch_warm_ms"),
        ("data.get_frames", "data.get_frames_ms"),
        ("md.neighbor_table", "md.neighbor_table_ms"),
    ):
        ms = rec.durations_ms(span_name)
        bench.set(metric, stats.median(ms), ms)

    # -- compute: one serial FEKF step from its public pieces --------------
    model = adapter.new_model(inputs, cfg, bench.seed)
    serial = adapter.serial_fekf(model)
    batches = [adapter.make_batch(inputs.train, idx, cfg) for idx in order[:HAND_STEPS]]
    common.trace_step(bench, serial, model, batches)
    common.trace_model_eval(bench, model, inputs, batch)
