"""Per-rank shard compute for (data-parallel) FEKF: the rank-worker layer.

The funnel dataflow of the paper (Sec. 3.1) reduces per-sample gradients
and absolute errors *before* any Kalman algebra, which makes the per-rank
work a pure function of (weight vector, :class:`DescriptorBatch` shard).
:class:`GradientWorker` packages exactly that function -- the reduced
energy / force-group gradients and ABEs that used to be private methods
of :class:`~repro.optim.ekf.FEKF` -- behind a public, picklable surface
so it can run

* in-process (the serial FEKF path delegates here),
* on worker threads (BLAS releases the GIL), or
* in persistent worker processes, each holding its own model replica and
  receiving only the per-update weight *delta* -- the paper's "gradients
  travel, P never does" argument applied to the weights as well.

Task protocol
-------------
Executors drive a worker exclusively through the shared task envelope
(:func:`repro.runtime.run_task` -- see :mod:`repro.runtime` for the rank
runtime's one description of envelope, telemetry merge and crash path);
the worker itself only declares its vocabulary.  State mutations
(``set_shard`` / ``set_weights`` / ``apply_delta``) and compute tasks
(``energy_task`` / ``graph_task`` / ``force_task``) are all of it, and
everything is picklable so the same protocol works over a pipe.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..autograd import Tensor, grad, ops
from ..model.environment import DescriptorBatch
from ..model.network import DeePMD
from ..telemetry.trace import span as _span

__all__ = [
    "error_signs",
    "ShardResult",
    "GradientWorker",
    "WorkerSpec",
]


def error_signs(errors: np.ndarray) -> np.ndarray:
    """+1 where the prediction is below the label, -1 otherwise
    (Algorithm 1 lines 3-5: flip Y_hat when Y_hat >= Y)."""
    return np.where(errors > 0.0, 1.0, -1.0)


@dataclass
class ShardResult:
    """One rank's reduced contribution to a global update.

    ``grad`` is the count-weighted *mean* gradient over the shard,
    ``abe_sum`` the summed absolute errors and ``count`` the number of
    components they cover (0 for an empty shard -- the count-weighted
    reduction then ignores the rank).
    """

    grad: np.ndarray
    abe_sum: float
    count: int


class GradientWorker:
    """Reduced-gradient compute over one model replica.

    The low-level methods (:meth:`energy_gradient`, :meth:`force_graph`,
    :meth:`force_group_gradient`, :meth:`force_gradient`) are the single
    implementation of FEKF's per-shard math -- the serial optimizer calls
    them directly on its own model.  The ``*_task`` methods add the
    rank-local state an executor round needs: the current shard, a cached
    force graph, and empty-shard short-circuits.
    """

    #: rank-runtime declarations (see :func:`repro.runtime.run_task`)
    tasks = frozenset(
        {
            "set_shard",
            "set_weights",
            "get_weights",
            "apply_delta",
            "energy_task",
            "graph_task",
            "force_task",
        }
    )
    span = "worker.task"
    #: the update kind each compute task contributes to (phase
    #: attribution for the profiler; ``graph_task`` has no kind -- it is
    #: the shared force-graph build)
    compute_tasks = {
        "energy_task": {"kind": "energy"},
        "graph_task": {},
        "force_task": {"kind": "force"},
    }
    counter = "parallel.worker_tasks"

    def __init__(
        self,
        model: DeePMD,
        fused_env: bool = False,
        rank: int = 0,
        compiled: bool = False,
    ):
        self.model = model
        self.fused_env = fused_env
        self.rank = int(rank)
        self.shard: Optional[DescriptorBatch] = None
        #: cached (f_pred, params) force graph for the current shard;
        #: deliberately *kept* across ``apply_delta`` (the shared-graph
        #: protocol evaluates all force groups on one stale graph) and
        #: dropped on ``set_shard`` / ``set_weights``.
        self.graph = None
        #: opt-in tape-compiled step replay (see repro.optim.compiled);
        #: the engine is built lazily on the first gradient call
        self.compiled = bool(compiled)
        self._engine = None

    def _compile_engine(self):
        if not self.compiled:
            return None
        if self._engine is None:
            from .compiled import CompiledStepEngine

            self._engine = CompiledStepEngine(self)
        return self._engine

    # ------------------------------------------------------------------
    # gradient math (shared with the serial FEKF path)
    # ------------------------------------------------------------------
    def _param_list(self, p: dict[str, Tensor]) -> list[Tensor]:
        return [p[name] for name in self.model.params.names()]

    def energy_gradient(self, batch: DescriptorBatch) -> tuple[np.ndarray, float]:
        """Reduced per-atom-energy gradient E(g) and ABE for the batch."""
        engine = self._compile_engine()
        if engine is not None:
            out = engine.energy_gradient(batch)
            if out is not None:
                return out
        model = self.model
        with _span("fekf.forward"):
            p = model.param_tensors()
            e = model.energy_graph(
                Tensor(batch.coords), batch, p=p, fused_env=self.fused_env
            )
            n = batch.n_atoms
            err = (batch.energies - e.data) / n
            abe = float(np.mean(np.abs(err)))
        with _span("fekf.gradient"):
            weights = error_signs(err) / (n * batch.batch_size)
            scalar = ops.tsum(ops.mul(e, Tensor(weights)))
            gs = grad(scalar, self._param_list(p))
            g_flat = model.params.flatten_grads(
                {name: g.data for name, g in zip(model.params.names(), gs)}
            )
        return g_flat, abe

    def force_graph(self, batch: DescriptorBatch):
        """Build the differentiable force predictions F = -dE/dr.

        Under the compiled engine this may return a
        :class:`~repro.optim.compiled.CompiledForceGraph` marker in place
        of the live ``(f_pred, params)`` pair; ``force_group_gradient``
        understands both."""
        engine = self._compile_engine()
        if engine is not None:
            out = engine.force_graph(batch)
            if out is not None:
                return out
        model = self.model
        with _span("fekf.forward"):
            p = model.param_tensors()
            coords = Tensor(batch.coords, requires_grad=True)
            e = model.energy_graph(coords, batch, p=p, fused_env=self.fused_env)
            (gc,) = grad(ops.tsum(e), [coords], create_graph=True)
            f_pred = ops.neg(gc)
        return f_pred, p

    def force_group_gradient(
        self,
        f_pred: Tensor,
        p: dict[str, Tensor],
        batch: DescriptorBatch,
        atom_group: np.ndarray,
    ) -> tuple[np.ndarray, float]:
        """Reduced gradient and ABE of one atom group's force components."""
        if getattr(f_pred, "compiled_marker", False):
            out = f_pred.engine.force_group_gradient(f_pred, batch, atom_group)
            if out is not None:
                return out
            # the plan cannot serve this group (unseen size, observer
            # active): fall back to a fresh eager forward
            return self.force_gradient(batch, atom_group)
        if self._engine is not None:
            out = self._engine.trace_force_group(f_pred, p, batch, atom_group)
            if out is not None:
                return out
        with _span("fekf.forward"):
            sel = (slice(None), atom_group, slice(None))
            f_group = f_pred[sel]
            err = batch.forces[sel] - f_group.data
            abe = float(np.mean(np.abs(err)))
        with _span("fekf.gradient"):
            weights = error_signs(err) / err.size
            scalar = ops.tsum(ops.mul(f_group, Tensor(weights)))
            gs = grad(scalar, self._param_list(p))
            g_flat = self.model.params.flatten_grads(
                {name: g.data for name, g in zip(self.model.params.names(), gs)}
            )
        return g_flat, abe

    def force_gradient(
        self, batch: DescriptorBatch, atom_group: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """Fresh forward at the current weights + one group's gradient
        (the paper-exact per-update protocol)."""
        engine = self._compile_engine()
        if engine is not None:
            out = engine.force_gradient(batch, atom_group)
            if out is not None:
                return out
        f_pred, p = self.force_graph(batch)
        return self.force_group_gradient(f_pred, p, batch, atom_group)

    def apply_increment(self, dw: np.ndarray) -> None:
        """w <- w + dw on this replica (bit-identical on every rank)."""
        self.model.params.unflatten(self.model.params.flatten() + dw)

    # ------------------------------------------------------------------
    # rank-local task state
    # ------------------------------------------------------------------
    def set_shard(self, shard: DescriptorBatch) -> None:
        self.shard = shard
        self.graph = None

    def set_weights(self, w: np.ndarray) -> None:
        self.model.params.unflatten(np.asarray(w, dtype=np.float64))
        self.graph = None

    def get_weights(self) -> np.ndarray:
        return self.model.params.flatten()

    def apply_delta(self, dw: np.ndarray) -> None:
        # graph cache intentionally survives (shared-graph protocol)
        self.apply_increment(np.asarray(dw, dtype=np.float64))

    def _zero_result(self) -> ShardResult:
        return ShardResult(np.zeros(self.model.num_params), 0.0, 0)

    def _require_shard(self) -> DescriptorBatch:
        if self.shard is None:
            raise RuntimeError("no shard assigned (dispatch set_shard first)")
        return self.shard

    # ------------------------------------------------------------------
    # compute tasks
    # ------------------------------------------------------------------
    def energy_task(self) -> ShardResult:
        shard = self._require_shard()
        if shard.batch_size == 0:
            return self._zero_result()
        g, abe = self.energy_gradient(shard)
        return ShardResult(g, abe * shard.batch_size, shard.batch_size)

    def graph_task(self) -> None:
        """Build and cache the force graph for the current shard."""
        shard = self._require_shard()
        self.graph = self.force_graph(shard) if shard.batch_size else None

    def force_task(self, atom_group: np.ndarray, fresh: bool) -> ShardResult:
        shard = self._require_shard()
        if shard.batch_size == 0:
            return self._zero_result()
        if fresh:
            g, abe = self.force_gradient(shard, atom_group)
        else:
            if self.graph is None:
                raise RuntimeError(
                    "shared-graph force task without a cached graph "
                    "(dispatch graph_task first)"
                )
            g, abe = self.force_group_gradient(*self.graph, shard, atom_group)
        n_comp = shard.batch_size * len(atom_group) * 3
        return ShardResult(g, abe * n_comp, n_comp)


@dataclass
class WorkerSpec:
    """Picklable recipe for building rank workers.

    ``build`` deep-copies the model so every rank owns an independent,
    bit-identical replica of the weights at build time; executors that
    respawn a worker afterwards must re-sync with ``set_weights``.
    """

    model: DeePMD
    fused_env: bool = False
    compiled: bool = False

    def build(self, rank: int = 0) -> GradientWorker:
        return GradientWorker(
            copy.deepcopy(self.model),
            fused_env=self.fused_env,
            rank=rank,
            compiled=self.compiled,
        )
