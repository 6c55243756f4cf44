"""The workload and metric catalogue: one source for ``BENCHMARK.json``,
the printed tables and the self-tests.

``BENCHMARK.json`` carries only the keys the builder contract allows;
the layer, the "moves" target and the per-workload meaning of each
metric live here (and in the README).
"""

from __future__ import annotations

import json
import os
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

#: seconds one run measures (the driver passes it back as ``--seconds``)
RUN_SECONDS = 10


class Workload(NamedTuple):
    name: str
    why: str


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    #: what the metric is on each workload (issue-11 name in brackets)
    meaning: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: workloads whose traced run measures it (0 is printed elsewhere)
    workloads: tuple[str, ...]
    #: the end-to-end metric it should move, and where
    moves: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


TRAIN = ("train_small", "train_paper", "train_stream")
ALL = TRAIN + ("serve_bundle", "online_loop")

WORKLOADS = (
    Workload(
        "train_small",
        "scaled-down net, serial FEKF, bs 32: dispatch-bound, model forward_force"
        " + autograd backward do ~90% of a step; bypasses data, parallel, serve",
    ),
    Workload(
        "train_paper",
        "paper net (26 551 params), 1.84 GB P, bs 8: optim.kalman dsymv/dsyr do"
        " ~85% of a step, memory-bandwidth bound; the only run whose RSS is P",
    ),
    Workload(
        "train_stream",
        "1 229-frame sharded store, cold caches, prefetch loader, 2 thread ranks:"
        " the data and parallel layers; the traced drain is where data does most work",
    ),
    Workload(
        "serve_bundle",
        "2 MD-like clients, bundles of 4 unique frames (all cache misses), closed"
        " loop then paced: serve queue->batch->worker plus model inference only",
    ),
    Workload(
        "online_loop",
        "explore->gate->label->train->swap beside paced cached client reads: same"
        " serve and data layers used differently, under GIL contention",
    ),
)

END_TO_END = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "process start to first timed sample: imports, data generation, ingest,"
        " model/optimizer/service construction, warm-up round",
    ),
    EndToEnd(
        "time_to_result_s", "s", "lower", 0.25,
        "median wall of one job -- train_small: the 5-epoch recipe whose RMSE is"
        " guarded [train_to_target_s]; train_paper: the timed trajectory;"
        " train_stream: one streamed round; serve_bundle: 2 clients x 100 bundles"
        " closed loop; online_loop: start to first live swap [loop_to_swap_s]",
    ),
    EndToEnd(
        "op_ms_p50", "ms", "lower", 0.25,
        "median latency of the unit operation -- train_*: optimizer.step_batch"
        " [step_ms_p50]; serve_bundle: bundle latency from due time at 60"
        " bundles/s [serve_p50_ms]; online_loop: paced client request",
    ),
    EndToEnd(
        "op_ms_tail", "ms", "lower", 0.25,
        "same samples, highest ladder percentile with >= 10 samples beyond it"
        " (p75 train_small/train_stream, p50 train_paper, p99 online_loop);"
        " serve_bundle: median p90 of the paced stream's 100-bundle windows"
        " [serve_p99_ms]",
    ),
    EndToEnd(
        "frames_per_s", "1/s", "higher", 0.25,
        "frames through the workload per second of timed wall -- train_*: frames"
        " consumed, loader wait included [train_frames_per_s]; serve_bundle:"
        " closed-loop capacity [serve_capacity_fps]; online_loop: client frames"
        " answered while the loop trains",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.25,
        "ru_maxrss of the workload process (bimodal by ~15% on the threaded"
        " workloads: glibc arenas)",
    ),
)

#: Same-seed guards: deterministic for a seed, so ``perfbench compare``
#: holds them to a tight bound -- but across seeds they spread by 0.19-0.36
#: of the median (RMSE after a few FEKF steps is a noisy random variable),
#: above anything the driver's cross-seed check allows, so they are not in
#: ``BENCHMARK.json``'s ``end_to_end``.
GUARDS = (
    EndToEnd(
        "final_force_rmse", "eV/A", "lower", 0.05,
        "quality guard, held-out force RMSE -- train_*: after the fixed work;"
        " serve_bundle: served forces against reference labels; online_loop: RMSE"
        " promoted by the first swap.  A faster step that learns less shows here",
    ),
)

_ONLINE = ("online_loop",)
_SERVE = ("serve_bundle",)
_STREAM = ("train_stream",)
_STEP = TRAIN + _ONLINE  # workloads whose trace hand-drives an FEKF step

PER_LAYER = (
    # -- model ----------------------------------------------------------
    PerLayer("model.force_graph_ms", "ms", "lower", _STEP,
             "op_ms_p50, time_to_result_s -> train_small"),
    PerLayer("model.energy_forward_ms", "ms", "lower", _STEP,
             "op_ms_p50 -> train_small"),
    PerLayer("model.predict_ms_per_frame", "ms", "lower", ALL,
             "op_ms_p50, frames_per_s -> serve_bundle"),
    PerLayer("model.eval_rmse_ms", "ms", "lower", ALL,
             "time_to_result_s -> train_small, online_loop"),
    # -- autograd -------------------------------------------------------
    PerLayer("autograd.energy_grad_ms", "ms", "lower", _STEP,
             "op_ms_p50 -> train_small"),
    PerLayer("autograd.force_group_grad_ms", "ms", "lower", _STEP,
             "op_ms_p50 -> train_small (the double-backward)"),
    PerLayer("autograd.kernel_launches_per_step", "count", "lower", _STEP,
             "exact count (Fig. 7b); no time"),
    PerLayer("autograd.minor_faults_per_step", "count", "lower", _STEP,
             "explains step-time variance (allocation churn)"),
    PerLayer("autograd.compiled_step_ms_p50", "ms", "lower", ("train_small",),
             "informational: the eager/compiled gap"),
    PerLayer("autograd.plan_fallbacks", "count", "lower", ("train_small",),
             "informational"),
    # -- optim ----------------------------------------------------------
    PerLayer("optim.kalman_update_ms", "ms", "lower", _STEP,
             "op_ms_p50 -> train_paper (~85%); <= 10% on train_small"),
    PerLayer("optim.apply_increment_ms", "ms", "lower", _STEP,
             "op_ms_p50 -> train_paper"),
    PerLayer("optim.kalman_share", "ratio", "lower", _STEP,
             "share of the hand-driven step spent in KalmanState.update"),
    PerLayer("optim.kalman_bytes_per_update", "bytes", "lower", _STEP,
             "computed from block sizes; op_ms_p50 -> train_paper (bandwidth)"),
    PerLayer("optim.kalman_flops_per_update", "count", "lower", _STEP,
             "computed; fewer flops is predicted NOT to help train_paper"),
    PerLayer("optim.kalman_gbps", "GB/s", "higher", _STEP,
             "computed bytes / measured update time"),
    PerLayer("optim.p_bytes", "bytes", "lower", _STEP,
             "peak_rss_mb -> train_paper"),
    PerLayer("optim.step_self_ms", "ms", "lower", _STEP,
             "driver overhead of the hand-driven step (wall minus child spans)"),
    PerLayer("optim.step_cover_frac", "ratio", "higher", _STEP,
             "share of the hand-driven step's wall its child spans account for"),
    # -- data / md ------------------------------------------------------
    PerLayer("data.drain_frames_per_s", "1/s", "higher", ALL,
             "raw frames -> DescriptorBatch with cold neighbor tables, no model"
             " compute; frames_per_s -> train_stream (its data path alone)"),
    PerLayer("data.ingest_frames_per_s", "1/s", "higher", _STREAM,
             "setup_s -> train_stream"),
    PerLayer("data.append_ms_per_frame", "ms", "lower", _ONLINE,
             "time_to_result_s -> online_loop (~1 ms of ~2 s: predicted invisible)"),
    PerLayer("data.get_frames_ms", "ms", "lower", _STREAM,
             "data.drain_frames_per_s -> train_stream"),
    PerLayer("data.make_batch_cold_ms", "ms", "lower", _STREAM,
             "data.drain_frames_per_s -> train_stream"),
    PerLayer("data.make_batch_warm_ms", "ms", "lower", _STREAM,
             "data.drain_frames_per_s -> train_stream"),
    PerLayer("data.wait_ms_per_step", "ms", "lower", TRAIN,
             "frames_per_s -> train_stream"),
    PerLayer("data.prefetch_hit_ratio", "ratio", "higher", _STREAM,
             "frames_per_s -> train_stream"),
    PerLayer("data.mapped_peak_bytes", "bytes", "lower", _STREAM,
             "peak_rss_mb -> train_stream"),
    PerLayer("data.bytes_read_per_frame", "bytes", "lower", _STREAM,
             "computed from record_bytes"),
    PerLayer("md.neighbor_table_ms", "ms", "lower", _STREAM + _SERVE,
             "data.drain_frames_per_s -> train_stream, serve_bundle"),
    PerLayer("md.explore_ms_per_mdstep", "ms", "lower", _ONLINE,
             "time_to_result_s -> online_loop"),
    PerLayer("md.label_ms_per_frame", "ms", "lower", _ONLINE,
             "time_to_result_s -> online_loop"),
    # -- parallel -------------------------------------------------------
    PerLayer("parallel.reduce_bytes_per_step", "bytes", "lower", _STREAM,
             "must equal 5 x allreduce_volume_bytes and not grow"),
    PerLayer("parallel.reduce_calls_per_step", "count", "lower", _STREAM,
             "exact count"),
    PerLayer("parallel.ring_allreduce_ms", "ms", "lower", _STREAM,
             "op_ms_p50 -> train_stream"),
    PerLayer("parallel.executor_roundtrip_ms", "ms", "lower", _STREAM,
             "op_ms_p50 -> train_stream"),
    PerLayer("parallel.round_overhead_ms", "ms", "lower", _STREAM,
             "step wall minus rank compute and Kalman time"),
    PerLayer("parallel.serial_fallbacks", "count", "lower", _STREAM,
             "must stay 0"),
    # -- serve ----------------------------------------------------------
    PerLayer("serve.overhead_ms_per_bundle", "ms", "lower", _SERVE,
             "op_ms_p50 -> serve_bundle (bundle p50 minus direct session)"),
    PerLayer("serve.fingerprint_ms_per_frame", "ms", "lower", _SERVE,
             "op_ms_p50 -> serve_bundle"),
    PerLayer("serve.frames_to_batch_ms_per_frame", "ms", "lower", _SERVE,
             "op_ms_p50, data.drain_frames_per_s -> serve_bundle"),
    PerLayer("serve.batch_size_mean", "count", "higher", _SERVE + _ONLINE,
             "frames_per_s -> serve_bundle"),
    PerLayer("serve.p90_ms_at_60", "ms", "lower", _SERVE,
             "latency rises before throughput stops rising: the ladder"),
    PerLayer("serve.p90_ms_at_100", "ms", "lower", _SERVE, "the ladder"),
    PerLayer("serve.p90_ms_at_140", "ms", "lower", _SERVE, "the ladder"),
    PerLayer("serve.max_ok_rate", "1/s", "higher", _SERVE,
             "highest ladder rate with tail <= 25 ms, no failures, no backlog"),
    PerLayer("serve.generator_late_ms_p99", "ms", "lower", _SERVE + _ONLINE,
             "how late the load generator ran"),
    PerLayer("serve.rejected", "count", "lower", _SERVE + _ONLINE, "must stay 0"),
    PerLayer("serve.timeouts", "count", "lower", _SERVE + _ONLINE, "must stay 0"),
    PerLayer("serve.cache_hit_ratio", "ratio", "higher", _SERVE + _ONLINE,
             "0 on serve_bundle by construction; op_ms_p50 -> online_loop"),
    PerLayer("serve.swap_ms", "ms", "lower", _ONLINE,
             "time_to_result_s -> online_loop"),
    PerLayer("serve.post_swap_first_ms", "ms", "lower", _ONLINE,
             "op_ms_tail -> online_loop (cache purged by the swap)"),
    PerLayer("serve.client_p99_ms", "ms", "lower", _ONLINE,
             "op_ms_tail -> online_loop (GIL-bound)"),
    # -- online ---------------------------------------------------------
    PerLayer("online.explore_ms", "ms", "lower", _ONLINE,
             "time_to_result_s -> online_loop"),
    PerLayer("online.gate_ms", "ms", "lower", _ONLINE,
             "time_to_result_s -> online_loop"),
    PerLayer("online.label_ms", "ms", "lower", _ONLINE,
             "time_to_result_s -> online_loop"),
    PerLayer("online.accumulate_ms", "ms", "lower", _ONLINE,
             "time_to_result_s -> online_loop"),
    PerLayer("online.train_round_ms", "ms", "lower", _ONLINE,
             "time_to_result_s -> online_loop (largest stage)"),
    PerLayer("online.holdout_eval_ms", "ms", "lower", _ONLINE,
             "time_to_result_s -> online_loop"),
    PerLayer("online.swap_ms", "ms", "lower", _ONLINE,
             "time_to_result_s -> online_loop"),
    PerLayer("online.critical_path_s", "s", "lower", _ONLINE,
             "sum of the stage spans of the synchronous drive"),
    PerLayer("online.contention_ratio", "ratio", "lower", _ONLINE,
             "concurrent start-to-swap wall / critical path"),
    PerLayer("online.segments_to_swap", "count", "lower", _ONLINE,
             "exploration segments the synchronous drive needed"),
    PerLayer("online.labels_avoided_frac", "ratio", "higher", _ONLINE,
             "labels the gate saved / candidates"),
    PerLayer("online.gate_errors", "count", "lower", _ONLINE, "must stay 0"),
    PerLayer("online.mixed_version_batches", "count", "lower", _ONLINE,
             "must stay 0"),
    PerLayer("online.promoted_vs_warm_rmse", "ratio", "lower", _ONLINE,
             "promoted / warm-start held-out force RMSE (< 1: improved)"),
    # -- train ----------------------------------------------------------
    PerLayer("train.final_force_rmse", "eV/A", "lower", ALL,
             "held-out force RMSE after the traced run's own fixed work; exact"
             " per seed (serve_bundle: served forces against labels)"),
    PerLayer("train.epochs_to_target", "count", "lower", ("train_small",),
             "epochs to train-total RMSE 0.43 (0: not within 12); exact per seed"),
    PerLayer("train.steps_to_target", "count", "lower", ("train_small",),
             "time to target = steps x step + evals"),
    PerLayer("train.eval_share", "ratio", "lower", ("train_small",),
             "time_to_result_s -> train_small"),
    PerLayer("train.loader_share", "ratio", "lower", ("train_small",),
             "time_to_result_s -> train_small"),
    # -- the benchmark itself -------------------------------------------
    PerLayer("perfbench.trace_overhead_frac", "ratio", "lower", _STEP,
             "traced hand-driven step p50 / FEKF.step_batch p50 - 1 (report)"),
)

E2E_NAMES = tuple(m.name for m in END_TO_END)
LAYER_NAMES = tuple(m.name for m in PER_LAYER)
WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)
UNITS = {m.name: m.unit for m in END_TO_END + GUARDS + PER_LAYER}


def benchmark_json() -> dict:
    """The document committed as ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def load_benchmark_json() -> dict:
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


#: the issue-11 name of a generic end-to-end metric on one workload
ALIASES = {
    "train_small": {"time_to_result_s": "train_to_target_s",
                    "op_ms_p50": "step_ms_p50", "frames_per_s": "train_frames_per_s"},
    "train_paper": {"op_ms_p50": "step_ms_p50", "frames_per_s": "train_frames_per_s"},
    "train_stream": {"op_ms_p50": "step_ms_p50", "frames_per_s": "train_frames_per_s"},
    "serve_bundle": {"op_ms_p50": "serve_p50_ms", "op_ms_tail": "serve_p99_ms",
                     "frames_per_s": "serve_capacity_fps"},
    "online_loop": {"time_to_result_s": "loop_to_swap_s"},
}
