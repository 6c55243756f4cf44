"""``train_paper``: the paper-size regime of Sec. 5.3.

Paper net (26 551 params), ``KalmanConfig(blocksize=10240,
fused_update=True)`` -> P blocks {1350, 10240, 9810, 5151}^2 = 1.84 GB,
serial FEKF, batch size 8.  One trajectory: a warm-up step, then the
timed steps (8 per 10 s).  No rounds -- building P costs ~8 s here and
is reported in ``setup_s``.
"""

from __future__ import annotations

import itertools
import math
import time

from .. import adapter
from ..harness import Bench
from . import common

FRAMES_PER_TEMPERATURE = 16
BATCH = 8
BLOCKSIZE = 10240
STEPS_PER_10S = 8
HAND_STEPS = 3


def _setup(bench: Bench):
    inputs = adapter.cu_inputs(bench.seed, FRAMES_PER_TEMPERATURE)
    cfg = adapter.net_config(inputs, "paper")
    model = adapter.new_model(inputs, cfg, bench.seed)
    opt = adapter.serial_fekf(model, BLOCKSIZE)
    loader = adapter.make_loader(inputs.train, BATCH, seed=bench.seed)
    return inputs, cfg, model, opt, loader


def _batches(loader, cfg):
    """Endless (indices, batch) stream over consecutive epochs."""
    return itertools.chain.from_iterable(
        loader.iter_batches(cfg, epoch) for epoch in itertools.count()
    )


def run(bench: Bench) -> None:
    inputs, cfg, model, opt, loader = _setup(bench)
    stream = _batches(loader, cfg)
    opt.step_batch(next(stream)[1])  # warm-up
    bench.end_setup()

    n_steps = bench.rounds(STEPS_PER_10S)
    step_ms, finite = [], True
    t_start = time.perf_counter()
    for _ in range(n_steps):
        _, batch = next(stream)
        t0 = time.perf_counter()
        out = opt.step_batch(batch)
        step_ms.append((time.perf_counter() - t0) * 1e3)
        finite &= all(math.isfinite(v) for v in out.values())
    wall = time.perf_counter() - t_start
    bench.attempt(n_steps)
    bench.check("train_paper.losses_finite", finite)
    bench.check("train_paper.five_updates_per_step",
                opt.kalman.updates == 5 * (n_steps + 1), f"{opt.kalman.updates}")

    bench.finish_e2e(
        job_walls=[wall],
        op_ms=step_ms,
        frames=(n_steps * BATCH, wall),
        rmse=common.held_out_rmse(model, inputs),
    )


def trace(bench: Bench) -> None:
    inputs, cfg, model, opt, loader = _setup(bench)
    stream = _batches(loader, cfg)
    opt.step_batch(next(stream)[1])  # warm-up
    bench.end_setup()

    t0 = time.perf_counter()
    batches = [next(stream)[1] for _ in range(HAND_STEPS)]
    bench.set("data.wait_ms_per_step", (time.perf_counter() - t0) * 1e3 / HAND_STEPS)
    common.trace_step(bench, opt, model, batches, warm_steps=0)  # warmed in setup
    common.trace_model_eval(bench, model, inputs, batches[0])
    common.trace_drain(bench, common.epoch_passes(
        common.cold_memory_loaders(inputs.train, BATCH, bench.seed), cfg))
    bench.check("train_paper.five_updates_per_step",
                opt.kalman.updates == 5 * (HAND_STEPS + 2), f"{opt.kalman.updates}")
