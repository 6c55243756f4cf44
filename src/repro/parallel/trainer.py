"""Data-parallel FEKF over pluggable rank executors.

The paper's Sec. 3.3 argument, executed literally:

* the minibatch is sharded across ranks;
* each rank's :class:`~repro.optim.GradientWorker` computes its *reduced*
  local gradient and absolute-error sums (the funnel dataflow -- reduction
  happens before any Kalman algebra);
* gradients are summed with a real ring-allreduce, ABEs with a scalar
  allreduce;
* the parent performs one Kalman update and broadcasts the weight *delta*
  to every replica, so the P replicas never diverge and are never
  communicated.  A verification mode keeps a genuinely independent shadow
  replica and asserts bit-equality of the checksums every update.

Execution backend is pluggable (:mod:`repro.parallel.executor`): ranks run
serially in-process (default), on worker threads, or in persistent worker
processes -- all bit-identical, because per-rank compute is a pure
function of (weights, shard) and results are reduced in rank order.

Robustness is the rank runtime's (:mod:`repro.runtime`): every round
goes through :meth:`Executor.run_resilient` with :meth:`DistributedFEKF.
_fallback` as the fallback -- a serial scratch worker that reproduces the
crashed round bit-identically (the shared force graph is rebuilt at the
snapshotted post-energy weights) -- and the executor is healed once at
the end of the step.

Two clocks are reported per step:

* ``modeled_time_s`` -- max_rank(compute) + t_comm(alpha-beta model)
  + t_kalman, the Table-5 simulated cluster time;
* ``wall_time_s`` -- real elapsed time of ``step_batch`` on this host,
  which is what the thread/process executors actually improve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..model.environment import DescriptorBatch
from ..model.network import DeePMD
from ..optim.ekf import FEKF
from ..optim.kalman import KalmanConfig, KalmanState
from ..optim.worker import GradientWorker, ShardResult, WorkerSpec
from ..runtime import (
    FaultInjector,
    TaskResult,
    WorkerTelemetry,
    capture_mode,
    merge_worker_telemetry,
    run_task,
)
from ..telemetry import metrics as _metrics
from ..telemetry.trace import current_tracer, span as _span
from .comm import CostModel, SimCommunicator
from .executor import Executor, make_executor
from .topology import ClusterSpec, cluster_for_gpus, cost_model_for


@dataclass
class StepTiming:
    """Accumulated timing components (seconds).

    ``compute_s`` / ``comm_s`` / ``kalman_s`` are *simulated-cluster*
    components (compute is the per-round max over ranks, comm comes from
    the alpha-beta model); ``wall_s`` is real elapsed time on this host.
    """

    compute_s: float = 0.0
    comm_s: float = 0.0
    kalman_s: float = 0.0
    wall_s: float = 0.0
    steps: int = 0

    @property
    def total_s(self) -> float:
        return self.compute_s + self.comm_s + self.kalman_s


class DistributedFEKF:
    """FEKF with the minibatch sharded over ``world_size`` ranks.

    Exposes the same ``step_batch`` protocol as the serial optimizers, so
    it plugs straight into :class:`repro.train.Trainer`.  ``executor``
    selects the backend: ``"serial"`` / ``"thread"`` / ``"process"``, an
    :class:`Executor` instance, or ``None`` to consult ``$REPRO_EXECUTOR``.
    """

    name = "DistributedFEKF"

    def __init__(
        self,
        model: DeePMD,
        world_size: int,
        kalman_cfg: KalmanConfig | None = None,
        n_force_splits: int = 4,
        reuse_force_graph: bool = True,
        verify_replicas: bool = False,
        cost_model: CostModel | None = None,
        seed: int = 0,
        executor: "str | Executor | None" = None,
    ):
        self.world_size = int(world_size)
        if cost_model is None:
            cost_model = cost_model_for(cluster_for_gpus(self.world_size))
        self.comm = SimCommunicator(self.world_size, cost_model)
        # the parent optimizer: owns the canonical weights + filter state
        self._local = FEKF(
            model,
            kalman_cfg=kalman_cfg,
            n_force_splits=n_force_splits,
            reuse_force_graph=reuse_force_graph,
            seed=seed,
        )
        self.model = model
        self._spec = WorkerSpec(model=model)
        self.executor = make_executor(executor, self.world_size)
        self.executor.start(self._spec)
        self.timing = StepTiming()
        self.verify_replicas = verify_replicas
        self._shadow: KalmanState | None = (
            self._local.kalman.clone() if verify_replicas else None
        )
        self.step_count = 0
        # per-step fallback state (see _fallback)
        self._fb_worker: GradientWorker | None = None
        self._fb_graphs: dict[int, object] = {}
        self._graph_weights: np.ndarray | None = None
        self._shard_cache: list[DescriptorBatch] = []

    # ------------------------------------------------------------------
    @property
    def kalman(self) -> KalmanState:
        return self._local.kalman

    # optimizer protocol: the parent holds one filter state and the
    # canonical weights, so state and hyperparameters delegate to it
    @property
    def hyperparams(self) -> dict:
        return {
            **self._local.hyperparams,
            "name": self.name,
            "world_size": self.world_size,
            "executor": self.executor.name,
        }

    def stats(self) -> dict:
        """Parent-side optimizer diagnostics (see :meth:`FEKF.stats`)."""
        return self._local.stats()

    def state_dict(self) -> dict[str, np.ndarray]:
        return self._local.state_dict()

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        self._local.load_state_dict(state)
        if self._shadow is not None:
            self._shadow = self._local.kalman.clone()
        self.sync_workers()

    def sync_workers(self) -> None:
        """Push the parent's full weight vector to every rank replica."""
        w = self.model.params.flatten()
        self._round([("set_weights", (w,))] * self.world_size)
        self._heal_if_degraded()

    def _heal_if_degraded(self) -> None:
        if self.executor.degraded:
            w = self.model.params.flatten()
            self.executor.heal(self._spec, [w] * self.world_size)

    def inject_fault(self, rank: int, fault: FaultInjector) -> None:
        """Install a fault injector on one rank (robustness tests)."""
        self.executor.inject_fault(rank, fault)

    def close(self) -> None:
        """Tear down the executor's workers (idempotent)."""
        self.executor.close()

    def _shards(self, batch: DescriptorBatch) -> list[DescriptorBatch]:
        """Near-even frame split; when ``batch_size < world_size`` the
        surplus ranks receive empty shards (their zero-count results drop
        out of the count-weighted reduction)."""
        bs = batch.batch_size
        if bs < 1:
            raise ValueError("cannot shard an empty batch")
        bounds = np.linspace(0, bs, self.world_size + 1).astype(int)
        return [batch.frame_slice(int(lo), int(hi)) for lo, hi in zip(bounds, bounds[1:])]

    # ------------------------------------------------------------------
    # executor rounds with serial fallback
    # ------------------------------------------------------------------
    def _round(
        self, calls: list[tuple[str, tuple]], capture: "bool | str" = False
    ) -> tuple[list, float]:
        """Run one call per rank through the rank runtime; returns the
        rank-ordered payloads and the max rank wall time (the
        simulated-cluster compute cost of the round)."""
        results = self.executor.run_resilient(calls, self._fallback, capture=capture)
        wall = merge_worker_telemetry(
            results, current_tracer(), executor=self.executor.name
        )
        return [r.payload for r in results], wall

    def _fallback(
        self, calls: list[tuple[str, tuple]], capture: "bool | str"
    ) -> list[TaskResult]:
        """Reproduce a round on the serial scratch worker.

        State tasks are no-ops (the parent already holds the canonical
        state; stale replicas are healed wholesale after the step), and
        ``graph_task`` is deferred -- the shared graph is rebuilt lazily
        per rank at the snapshotted post-energy weights, which is exactly
        where the live workers built theirs.
        """
        worker = self._fb_worker
        if worker is None:
            worker = self._fb_worker = self._spec.build()
        results = []
        for rank, (method, args) in enumerate(calls):
            if method not in ("energy_task", "force_task"):
                results.append(TaskResult(None, WorkerTelemetry(rank=rank)))
                continue
            shard = self._shard_cache[rank]
            if method == "energy_task" or args[1]:  # fresh forward
                worker.set_weights(self.model.params.flatten())
                worker.set_shard(shard)
            else:
                if rank not in self._fb_graphs:
                    worker.set_weights(self._graph_weights)
                    worker.set_shard(shard)
                    worker.graph_task()
                    self._fb_graphs[rank] = worker.graph
                worker.set_shard(shard)
                worker.graph = self._fb_graphs[rank]
            results.append(run_task(worker, method, args, capture))
        return results

    # ------------------------------------------------------------------
    def _allreduce_gradient(
        self, locals_: list[ShardResult], total: int
    ) -> tuple[np.ndarray, float]:
        """Combine per-rank shard results into the global mean gradient
        and ABE via ring/scalar allreduce (zero-count ranks contribute
        zero weight)."""
        weighted = [r.grad * (r.count / total) for r in locals_]
        reduced = self.comm.ring_allreduce(weighted)
        # every replica must hold the same result bit-for-bit
        for other in reduced[1:]:
            if not np.array_equal(reduced[0], other):
                raise AssertionError("ring-allreduce replicas diverged")
        abe = self.comm.allreduce_scalar([r.abe_sum for r in locals_]) / total
        return reduced[0], abe

    def _kf_update(self, g: np.ndarray, abe: float, scale: float) -> None:
        """One Kalman update on the parent, mirrored onto every replica."""
        t0 = time.perf_counter()
        with _span("parallel.kalman"):
            dw = self._local.kalman.update(g, abe, scale)
        self.timing.kalman_s += time.perf_counter() - t0
        if self._shadow is not None:
            dw2 = self._shadow.update(g, abe, scale)
            if not np.array_equal(dw, dw2):
                raise AssertionError("Kalman replicas diverged")
            if self._shadow.checksum() != self._local.kalman.checksum():
                raise AssertionError("P replica checksums diverged")
        self._local.apply_increment(dw)
        # broadcast the delta so every replica tracks the parent (a no-op
        # on the fallback: heal() re-syncs wholesale afterwards)
        self._round([("apply_delta", (dw,))] * self.world_size)

    # ------------------------------------------------------------------
    def step_batch(self, batch: DescriptorBatch) -> dict[str, float]:
        step_t0 = time.perf_counter()
        shards = self._shards(batch)
        self._shard_cache = shards
        self._fb_graphs = {}
        self._graph_weights = None
        bs = batch.batch_size
        scale = float(np.sqrt(bs))
        comm_t0 = self.comm.modeled_time_s
        capture = capture_mode(current_tracer())
        ranks = len(shards)

        # ---- distribute shards ---------------------------------------
        self._round([("set_shard", (s,)) for s in shards])

        # ---- energy update -------------------------------------------
        with _span("parallel.compute", kind="energy", ranks=ranks):
            locals_, wall = self._round([("energy_task", ())] * ranks, capture)
            self.timing.compute_s += wall
        with _span("parallel.comm", kind="energy"):
            g_mean, abe = self._allreduce_gradient(locals_, bs)
        self._kf_update(g_mean, abe, scale)

        # ---- force updates -------------------------------------------
        groups = self._local.force_groups(batch.n_atoms)
        fresh = not self._local.reuse_force_graph
        if not fresh:
            # the shared graphs are built at the post-energy-update
            # weights; snapshot them so a fallback can rebuild any rank's
            # graph bit-identically after a mid-step crash
            self._graph_weights = self.model.params.flatten()
            with _span("parallel.compute", kind="force_graph", ranks=ranks):
                _, wall = self._round([("graph_task", ())] * ranks, capture)
                self.timing.compute_s += wall
        f_abes = []
        for group in groups:
            with _span("parallel.compute", kind="force", ranks=ranks):
                locals_, wall = self._round(
                    [("force_task", (group, fresh))] * ranks, capture
                )
                self.timing.compute_s += wall
            with _span("parallel.comm", kind="force"):
                g_mean, abe = self._allreduce_gradient(locals_, bs * len(group) * 3)
            self._kf_update(g_mean, abe, scale)
            f_abes.append(abe)

        self._heal_if_degraded()
        self.timing.comm_s += self.comm.modeled_time_s - comm_t0
        self.timing.wall_s += time.perf_counter() - step_t0
        self.timing.steps += 1
        self.step_count += 1
        _metrics.REGISTRY.counter("optim.steps", optimizer=self.name).inc()
        return {
            "force_abe": float(np.mean(f_abes)) if f_abes else 0.0,
            "modeled_time_s": self.timing.total_s,
            "wall_time_s": self.timing.wall_s,
            "comm_bytes_per_rank": self.comm.ledger.bytes_sent_per_rank,
        }
