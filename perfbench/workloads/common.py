"""Pieces shared by the workloads: the trainer clock, the data-path
drain, and the hand-driven FEKF step of the traced runs."""

from __future__ import annotations

import math
import time

import numpy as np

from .. import adapter, stats
from ..harness import Bench, minor_faults
from ..spans import SpanRecorder, self_times

#: the small data-path drain every traced run does: whole passes until the
#: budget is spent, at least this many; the median pass is reported
DRAIN_BUDGET_S = 0.4
DRAIN_PASSES = 5


class TrainClock(adapter.Callback):
    """Trainer callback timing steps (as the trainer reports them) and
    evaluations (last step end -> ``on_eval``), with a span for each when
    the recorder is on."""

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self.step_ms: list[float] = []
        self.eval_ms: list[float] = []
        self.finite = True
        self._mark = time.perf_counter()

    def on_train_begin(self, trainer) -> None:
        self._mark = time.perf_counter()

    def on_step_end(self, info) -> None:
        now = time.perf_counter()
        self.step_ms.append(info.step_seconds * 1e3)
        self.finite &= all(math.isfinite(v) for v in info.stats.values())
        self.rec.add("train.step", "train", now - info.step_seconds, now,
                     epoch=info.epoch, batch=info.batch_index)
        self._mark = now

    def on_eval(self, record) -> None:
        now = time.perf_counter()
        self.eval_ms.append((now - self._mark) * 1e3)
        self.rec.add("train.eval", "train", self._mark, now, epoch=record.epoch)
        self._mark = now


def trace_drain(bench: Bench, cold_passes) -> None:
    """``data.drain_frames_per_s``: raw frames -> ``DescriptorBatch``es with
    cold neighbor tables and no optimizer.  ``cold_passes`` is a generator of
    callables, each doing one pass and returning the frames it delivered
    (anything a pass must prepare happens before it is yielded, untimed).
    Passes run until ``DRAIN_BUDGET_S`` is spent, at least ``DRAIN_PASSES``
    times; frames per pass over the median pass."""
    walls: list[float] = []
    frames = 0
    for one_pass in cold_passes:
        t0 = time.perf_counter()
        frames = one_pass()
        t1 = time.perf_counter()
        bench.rec.add("data.drain_pass", "data", t0, t1, frames=frames)
        walls.append(t1 - t0)
        if len(walls) >= DRAIN_PASSES and sum(walls) >= DRAIN_BUDGET_S:
            break
    cold_passes.close()
    bench.set("data.drain_frames_per_s", frames / stats.median(walls), walls)


def epoch_passes(cold_loaders, cfg):
    """One epoch of each loader ``cold_loaders`` yields, as drain passes."""
    try:
        for epoch, loader in enumerate(cold_loaders):
            yield lambda: sum(b.batch_size for _, b in loader.iter_batches(cfg, epoch))
    finally:
        cold_loaders.close()


def cold_memory_loaders(dataset, batch_size: int, seed: int):
    """Loaders over an in-memory dataset whose cached neighbor tables are
    dropped before every pass."""
    while True:
        dataset.cached_neighbors = None
        yield adapter.make_loader(dataset, batch_size, seed=seed)


def cold_store_loaders(open_store, make_loader):
    """Loaders over a frame store reopened (empty caches) for every pass."""
    while True:
        store = open_store()
        try:
            yield make_loader(store)
        finally:
            store.close()


def held_out_rmse(model, inputs) -> float:
    return model.evaluate_rmse(inputs.test, max_frames=64)["force_rmse"]


# ---------------------------------------------------------------------------
# the hand-driven FEKF step
# ---------------------------------------------------------------------------
def hand_step(opt, batch, rec: SpanRecorder, step: int) -> None:
    """One FEKF step driven from its public pieces, a span around each
    call: the same arithmetic, in the same order, as ``FEKF.step_batch``
    (1 energy update, then 4 force-group updates on one shared graph)."""
    worker, kalman = opt.worker, opt.kalman
    scale = float(np.sqrt(batch.batch_size))
    with rec.span("optim.step", "optim", step=step):
        with rec.span("autograd.energy_grad", "autograd", step=step):
            g, abe = worker.energy_gradient(batch)
        with rec.span("optim.kalman_update", "optim", step=step, kind="energy"):
            dw = kalman.update(g, abe, scale)
        with rec.span("optim.apply_increment", "optim", step=step):
            opt.apply_increment(dw)
        with rec.span("model.force_graph", "model", step=step):
            f_pred, params = worker.force_graph(batch)
        for gi, group in enumerate(opt.force_groups(batch.n_atoms)):
            with rec.span("autograd.force_group_grad", "autograd", step=step, group=gi):
                g, abe = worker.force_group_gradient(f_pred, params, batch, group)
            with rec.span("optim.kalman_update", "optim", step=step, kind="force"):
                dw = kalman.update(g, abe, scale)
            with rec.span("optim.apply_increment", "optim", step=step):
                opt.apply_increment(dw)
        opt.step_count += 1


def kalman_computed(opt) -> tuple[float, float]:
    """(bytes, flops) one fused Kalman update moves/performs, *computed*
    from the block sizes: ``dsymv`` reads the upper triangle once,
    ``dsyr`` reads and writes it once; 2n^2 + n^2 flops."""
    tri = [b.size * (b.size + 1) / 2 for b in opt.kalman.blocks]
    return 8.0 * 3.0 * sum(tri), 3.0 * sum(b.size**2 for b in opt.kalman.blocks)


def trace_step(bench: Bench, opt, model, batches, warm_steps: int = 2) -> None:
    """The traced run's core for every workload that trains.

    Snapshot filter and weights; drive ``len(batches)`` steps by hand with
    spans; restore the snapshot; replay the same batches through
    ``FEKF.step_batch`` untraced; assert both ended bit-identical; then
    read the layer table off the spans.  ``warm_steps`` untimed steps come
    first, so neither side pays the allocator's first touch of this step
    shape (that cost is what ``setup_s`` reports)."""
    rec = bench.rec
    for batch in batches[:warm_steps]:
        opt.step_batch(batch)
    state0 = opt.state_dict()
    w0 = model.params.flatten().copy()

    for k, batch in enumerate(batches):
        hand_step(opt, batch, rec, k)
    hand = (adapter.weights_sha(model), opt.kalman.checksum(), opt.kalman.updates)

    opt.load_state_dict(state0)
    model.params.unflatten(w0)
    step_ms = []
    faults0 = minor_faults()
    for batch in batches:
        t0 = time.perf_counter()
        opt.step_batch(batch)
        step_ms.append((time.perf_counter() - t0) * 1e3)
    faults = minor_faults() - faults0
    twin = (adapter.weights_sha(model), opt.kalman.checksum(), opt.kalman.updates)
    bench.attempt(2 * len(batches))
    bench.check("trace.hand_step_bit_identical", hand == twin, f"{hand} != {twin}")

    with adapter.KernelCounter() as kc:
        opt.step_batch(batches[0])
    bench.set("autograd.kernel_launches_per_step", kc.total_launches)
    bench.set("autograd.minor_faults_per_step", faults / len(batches))

    for span_name, metric in (
        ("model.force_graph", "model.force_graph_ms"),
        ("autograd.energy_grad", "autograd.energy_grad_ms"),
        ("autograd.force_group_grad", "autograd.force_group_grad_ms"),
        ("optim.kalman_update", "optim.kalman_update_ms"),
        ("optim.apply_increment", "optim.apply_increment_ms"),
    ):
        ms = rec.durations_ms(span_name)
        bench.set(metric, stats.median(ms), ms)
    steps = rec.named("optim.step")
    selfs = self_times(rec.spans)
    self_ms = [selfs[s.id] * 1e3 for s in steps]
    total_ms = [s.duration * 1e3 for s in steps]
    bench.set("optim.step_self_ms", stats.median(self_ms), self_ms)
    bench.set("optim.step_cover_frac", 1.0 - sum(self_ms) / sum(total_ms))
    kalman_ms = rec.durations_ms("optim.kalman_update")
    bench.set("optim.kalman_share", sum(kalman_ms) / sum(total_ms))
    nbytes, flops = kalman_computed(opt)
    bench.set("optim.kalman_bytes_per_update", nbytes)
    bench.set("optim.kalman_flops_per_update", flops)
    bench.set("optim.kalman_gbps", nbytes / (stats.median(kalman_ms) * 1e-3) / 1e9)
    bench.set("optim.p_bytes", opt.kalman.p_memory_bytes())
    bench.set("perfbench.trace_overhead_frac",
              stats.median(total_ms) / stats.median(step_ms) - 1.0)
    bench.notes["hand_step_ms_p50"] = stats.median(total_ms)
    bench.notes["step_batch_ms_p50"] = stats.median(step_ms)
    bench.check(
        "trace.child_spans_cover_90pct",
        bench.values["optim.step_cover_frac"] >= 0.9,
        f"cover {bench.values['optim.step_cover_frac']:.3f}",
    )

    for _ in range(5):
        with rec.span("model.energy_forward", "model"):
            model.predict_energy(batches[0])
    fwd = rec.durations_ms("model.energy_forward")
    bench.set("model.energy_forward_ms", stats.median(fwd), fwd)


def trace_model_eval(bench: Bench, model, inputs, batch) -> None:
    """``model.predict_ms_per_frame`` (direct session on ``batch``),
    ``model.eval_rmse_ms`` (the trainer's / promotion gate's evaluation) and
    the held-out force RMSE the traced run's model ended on."""
    session = adapter.ModelSession(model)
    for _ in range(5):
        with bench.rec.span("model.predict", "model", frames=batch.batch_size):
            session.predict_descriptor_batch(batch)
    ms = [d / batch.batch_size for d in bench.rec.durations_ms("model.predict")]
    bench.set("model.predict_ms_per_frame", stats.median(ms), ms)
    for _ in range(3):
        with bench.rec.span("model.eval_rmse", "model"):
            rmse = held_out_rmse(model, inputs)
    ms = bench.rec.durations_ms("model.eval_rmse")
    bench.set("model.eval_rmse_ms", stats.median(ms), ms)
    bench.set("train.final_force_rmse", rmse)
