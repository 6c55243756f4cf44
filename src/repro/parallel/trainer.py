"""Data-parallel FEKF over pluggable rank executors.

The paper's Sec. 3.3 argument, executed literally:

* the minibatch is sharded across ranks;
* each rank's :class:`~repro.optim.GradientWorker` computes its *reduced*
  local gradient and absolute-error sums (the funnel dataflow -- reduction
  happens before any Kalman algebra);
* gradients are summed with a real ring-allreduce, ABEs with a scalar
  allreduce;
* the parent performs the Kalman updates and broadcasts the weight
  *deltas* to every replica, so the P replicas never diverge and are never
  communicated.  A verification mode keeps a genuinely independent shadow
  replica and asserts bit-equality of the increments and checksums after
  every filter call.

The step itself is :meth:`FEKF.step_batch`; a shared-graph step is five
executor rounds -- ``set_shard``, energy, ``apply_delta``, force (each
rank builds its force graph and sweeps every group), ``apply_delta``.

Execution backend is pluggable (:mod:`repro.parallel.executor`): ranks run
serially in-process (default), on worker threads, or in persistent worker
processes -- all bit-identical, because per-rank compute is a pure
function of (weights, shard) and results are reduced in rank order.

Robustness is the rank runtime's (:mod:`repro.runtime`): every round
goes through :meth:`Executor.run_resilient` with :meth:`DistributedFEKF.
_fallback` as the fallback -- the parent's own worker reproduces the
crashed round bit-identically, because a compute round always runs at the
parent's current weights (no increment lands between a compute round and
its reduction) and keeps nothing on the rank -- and the executor is
healed once at the end of the step.

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
from ..telemetry.trace import current_tracer, span as _span
from .comm import CostModel, SimCommunicator
from .executor import Executor, make_executor
from .topology import cluster_for_gpus, cost_model_for


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


class DistributedFEKF(FEKF):
    """FEKF with the minibatch sharded over ``world_size`` ranks.

    The step is :meth:`FEKF.step_batch`; this class supplies only where
    its gradients come from (executor rounds, then the count-weighted
    ring and scalar allreduces), where its increments go (the parent, then
    every replica) and the filter's timing and shadow check.  It plugs
    straight into :class:`repro.train.Trainer`.  ``executor`` selects the
    backend: ``"serial"`` / ``"thread"`` / ``"process"``, an
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
        # the parent: owns the canonical weights + filter state
        super().__init__(
            model,
            kalman_cfg=kalman_cfg,
            n_force_splits=n_force_splits,
            reuse_force_graph=reuse_force_graph,
            seed=seed,
        )
        self.world_size = int(world_size)
        if cost_model is None:
            cost_model = cost_model_for(cluster_for_gpus(self.world_size))
        self.comm = SimCommunicator(self.world_size, cost_model)
        self._spec = WorkerSpec(model=model)
        self.executor = make_executor(executor, self.world_size)
        self.executor.start(self._spec)
        self.timing = StepTiming()
        self.verify_replicas = verify_replicas
        self._shadow: KalmanState | None = (
            self.kalman.clone() if verify_replicas else None
        )
        self._shard_cache: list[DescriptorBatch] = []

    # ------------------------------------------------------------------
    @property
    def hyperparams(self) -> dict:
        return {
            **super().hyperparams,
            "world_size": self.world_size,
            "executor": self.executor.name,
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        super().load_state_dict(state)
        if self._shadow is not None:
            self._shadow = self.kalman.clone()
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
        """Reproduce a round on the parent's own worker.

        State tasks are no-ops: the parent already holds the canonical
        state, and stale replicas are healed wholesale after the step.
        A compute task runs at the parent's current weights, which is
        where every live rank ran it: no increment lands between a
        compute round and the reduction of its results.  Each result
        carries the rank of the call it reproduces, so its merged spans
        and ops land on that rank's track.
        """
        results = []
        for rank, (method, args) in enumerate(calls):
            if method not in GradientWorker.compute_tasks:
                results.append(TaskResult(None, WorkerTelemetry(rank=rank)))
                continue
            self.worker.set_shard(self._shard_cache[rank])
            results.append(run_task(self.worker, method, args, capture))
            results[-1].telemetry.rank = rank
        return results

    def _compute(self, kind: str, calls: list[tuple[str, tuple]]) -> list:
        with _span("parallel.compute", kind=kind, ranks=self.world_size):
            payloads, wall = self._round(calls, capture_mode(current_tracer()))
            self.timing.compute_s += wall
        return payloads

    def _allreduce_gradient(
        self, kind: str, locals_: list[ShardResult], total: int
    ) -> tuple[np.ndarray, float]:
        """Combine per-rank shard results into the global mean gradient
        and ABE via ring/scalar allreduce (zero-count ranks contribute
        zero weight)."""
        with _span("parallel.comm", kind=kind):
            weighted = [r.grad * (r.count / total) for r in locals_]
            reduced = self.comm.ring_allreduce(weighted)
            # every replica must hold the same result bit-for-bit
            for other in reduced[1:]:
                if not np.array_equal(reduced[0], other):
                    raise AssertionError("ring-allreduce replicas diverged")
            abe = self.comm.allreduce_scalar([r.abe_sum for r in locals_]) / total
        return reduced[0], abe

    # ------------------------------------------------------------------
    # FEKF's seams
    # ------------------------------------------------------------------
    def _energy_gradient(self, batch: DescriptorBatch) -> tuple[np.ndarray, float]:
        locals_ = self._compute("energy", [("energy_task", ())] * self.world_size)
        return self._allreduce_gradient("energy", locals_, batch.batch_size)

    def _group_gradients(
        self, batch: DescriptorBatch, groups: list[np.ndarray]
    ) -> list[tuple[np.ndarray, float]]:
        per_rank = self._compute("force", [("force_task", (groups,))] * self.world_size)
        return [
            self._allreduce_gradient(
                "force", [r[k] for r in per_rank], batch.batch_size * len(group) * 3
            )
            for k, group in enumerate(groups)
        ]

    def _filter(
        self, items: list[tuple[np.ndarray, float]], scale: float
    ) -> list[np.ndarray]:
        t0 = time.perf_counter()
        dws = super()._filter(items, scale)
        self.timing.kalman_s += time.perf_counter() - t0
        if self._shadow is not None:
            shadow = self._shadow.update_many(items, scale)
            if any(not np.array_equal(a, b) for a, b in zip(dws, shadow)):
                raise AssertionError("Kalman replicas diverged")
            if self._shadow.checksum() != self.kalman.checksum():
                raise AssertionError("P replica checksums diverged")
        return dws

    def apply_increment(self, *dws: np.ndarray) -> None:
        """Each ``dw`` in turn on the parent, then on every replica in one
        ``apply_delta`` round (a no-op on the fallback: the heal at the end
        of the step re-syncs wholesale)."""
        super().apply_increment(*dws)
        self._round([("apply_delta", dws)] * self.world_size)

    # ------------------------------------------------------------------
    def step_batch(self, batch: DescriptorBatch) -> dict[str, float]:
        step_t0 = time.perf_counter()
        comm_t0 = self.comm.modeled_time_s
        self._shard_cache = self._shards(batch)
        self._round([("set_shard", (s,)) for s in self._shard_cache])
        stats = super().step_batch(batch)
        self._heal_if_degraded()
        self.timing.comm_s += self.comm.modeled_time_s - comm_t0
        self.timing.wall_s += time.perf_counter() - step_t0
        self.timing.steps += 1
        return {
            **stats,
            "modeled_time_s": self.timing.total_s,
            "wall_time_s": self.timing.wall_s,
            "comm_bytes_per_rank": self.comm.ledger.bytes_sent_per_rank,
        }
