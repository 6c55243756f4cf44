"""``train_small``: the dispatch-bound training regime.

Scaled-down net (3 889 params), serial ``FEKF(KalmanConfig(blocksize=2048,
fused_update=True), fused_env=True)``, batch size 32, 115 in-memory Cu
frames.  The timed job is a fixed recipe -- ``Trainer.run(max_epochs=5)``
= 15 steps + 5 evaluations from a fresh model -- repeated as identical
rounds; its held-out force RMSE is the quality guard, so a faster step
that learns less shows there.  (Time to a *fixed* RMSE depends on the
seed's data by 2x, which no bound could hold; the traced run reports
epochs/steps to train-total 0.43 as exact counts instead.)
"""

from __future__ import annotations

import time

from .. import adapter, stats
from ..harness import Bench
from . import common

FRAMES_PER_TEMPERATURE = 48
BATCH = 32
EPOCHS = 5
ROUNDS_PER_10S = 4
TARGET = 0.43
TARGET_MAX_EPOCHS = 12
HAND_STEPS = 8


def _round(bench: Bench, inputs, cfg, max_epochs=EPOCHS, target=None):
    """One job from a fresh model: (wall, clock, result, model)."""
    model = adapter.new_model(inputs, cfg, bench.seed)
    opt = adapter.serial_fekf(model)
    trainer = adapter.Trainer(
        model, opt, inputs.train, inputs.test, batch_size=BATCH, seed=bench.seed
    )
    clock = common.TrainClock(bench.rec)
    t0 = time.perf_counter()
    with bench.rec.span("train.run", "train"):
        result = trainer.run(max_epochs=max_epochs, target=target, callbacks=[clock])
    wall = time.perf_counter() - t0
    trainer.close()
    return wall, clock, result, model


def run(bench: Bench) -> None:
    inputs = adapter.cu_inputs(bench.seed, FRAMES_PER_TEMPERATURE)
    cfg = adapter.net_config(inputs)
    _, _, _, warm_model = _round(bench, inputs, cfg)
    reference_sha = adapter.weights_sha(warm_model)
    bench.end_setup()

    walls, step_ms, shas, finite = [], [], [], True
    for _ in range(bench.rounds(ROUNDS_PER_10S)):
        wall, clock, result, model = _round(bench, inputs, cfg)
        walls.append(wall)
        step_ms += clock.step_ms
        shas.append(adapter.weights_sha(model))
        finite &= clock.finite
        bench.attempt(len(clock.step_ms) + 1)
        bench.check("train_small.round_ran_all_epochs",
                    len(result.history) == EPOCHS, f"{len(result.history)} evals")
    bench.check("train_small.rounds_identical_sha",
                set(shas) == {reference_sha}, f"{set(shas)} vs {reference_sha}")
    bench.check("train_small.losses_finite", finite)

    bench.finish_e2e(
        job_walls=walls,
        op_ms=step_ms,
        frames=(len(step_ms) * BATCH, sum(walls)),
        rmse=common.held_out_rmse(model, inputs),
    )


def trace(bench: Bench) -> None:
    inputs = adapter.cu_inputs(bench.seed, FRAMES_PER_TEMPERATURE)
    cfg = adapter.net_config(inputs)
    rec = bench.rec
    with rec.paused():
        _round(bench, inputs, cfg)  # warm-up
    bench.end_setup()

    # the trainer seen from outside: steps, evaluations, and the rest
    wall, clock, result, model = _round(
        bench, inputs, cfg, TARGET_MAX_EPOCHS,
        adapter.TargetCriterion(TARGET, "total"),
    )
    bench.attempt(len(clock.step_ms) + 1)
    steps_s, evals_s = sum(clock.step_ms) / 1e3, sum(clock.eval_ms) / 1e3
    bench.set("train.epochs_to_target", result.epochs_to_target or 0)
    bench.set("train.steps_to_target",
              len(clock.step_ms) if result.converged else 0)
    bench.set("train.eval_share", evals_s / wall)
    bench.set("train.loader_share", max(wall - steps_s - evals_s, 0.0) / wall)
    bench.set("data.wait_ms_per_step",
              max(wall - steps_s - evals_s, 0.0) * 1e3 / len(clock.step_ms))

    # one FEKF step from its public pieces, against FEKF.step_batch
    model = adapter.new_model(inputs, cfg, bench.seed)
    opt = adapter.serial_fekf(model)
    loader = adapter.make_loader(inputs.train, BATCH, seed=bench.seed)
    batches = [
        batch
        for epoch in range(-(-HAND_STEPS // len(loader)))
        for _, batch in loader.iter_batches(cfg, epoch)
    ][:HAND_STEPS]
    common.trace_step(bench, opt, model, batches)
    common.trace_model_eval(bench, model, inputs, batches[0])
    common.trace_drain(bench, common.epoch_passes(
        common.cold_memory_loaders(inputs.train, BATCH, bench.seed), cfg))

    # informational: the same steps through tape-compiled plans
    twin = adapter.serial_fekf(adapter.new_model(inputs, cfg, bench.seed), compiled=True)
    for batch in batches + batches[:2]:
        with rec.span("autograd.compiled_step", "autograd"):
            twin.step_batch(batch)
    compiled_ms = rec.durations_ms("autograd.compiled_step")[2:]  # skip compiles
    bench.attempt(len(batches) + 2)
    bench.set("autograd.compiled_step_ms_p50", stats.median(compiled_ms), compiled_ms)
    bench.set("autograd.plan_fallbacks",
              twin.stats().get("compiled", {}).get("fallbacks", 0))
