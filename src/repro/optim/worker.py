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
(``energy_task`` / ``force_task``) are all of it, and everything is
picklable so the same protocol works over a pipe.  A compute task is a
pure function of the replica's weights and shard: it keeps nothing
between rounds.
"""

from __future__ import annotations

import copy
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..autograd import Tensor, grad, ops
from ..model.environment import DescriptorBatch
from ..model.network import DeePMD
from ..telemetry.trace import Tracer, current_tracer
from ..telemetry.trace import span as _span
from .lanes import map_lanes

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
    :meth:`force_group_gradient`, :meth:`force_gradient`,
    :meth:`group_gradients`) are the single implementation of FEKF's
    per-shard math -- the serial optimizer calls them directly on its own
    model.  The ``*_task`` methods add what an executor round needs: the
    rank's current shard and empty-shard short-circuits.
    """

    #: rank-runtime declarations (see :func:`repro.runtime.run_task`)
    tasks = frozenset(
        {
            "set_shard",
            "set_weights",
            "get_weights",
            "apply_delta",
            "energy_task",
            "force_task",
        }
    )
    span = "worker.task"
    #: the update kind each compute task contributes to (phase
    #: attribution for the profiler); ``force_task`` has none: its force
    #: graph build is the shared one, and each group's sweep carries a
    #: ``fekf.update`` of kind ``force`` of its own
    compute_tasks = {
        "energy_task": {"kind": "energy"},
        "force_task": {},
    }
    counter = "parallel.worker_tasks"

    def __init__(self, model: DeePMD, rank: int = 0):
        self.model = model
        self.rank = int(rank)
        self.shard: Optional[DescriptorBatch] = None

    # ------------------------------------------------------------------
    # gradient math (shared with the serial FEKF path)
    # ------------------------------------------------------------------
    def _param_list(self, p: dict[str, Tensor]) -> list[Tensor]:
        return [p[name] for name in self.model.params.names()]

    def energy_gradient(self, batch: DescriptorBatch) -> tuple[np.ndarray, float]:
        """Reduced per-atom-energy gradient E(g) and ABE for the batch."""
        model = self.model
        with _span("fekf.forward"):
            p = model.param_tensors()
            e = model.energy_graph(Tensor(batch.coords), batch, p=p)
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
        """Build the differentiable force predictions F = -dE/dr."""
        model = self.model
        with _span("fekf.forward"):
            p = model.param_tensors()
            coords = Tensor(batch.coords, requires_grad=True)
            e = model.energy_graph(coords, batch, p=p)
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
        f_pred, p = self.force_graph(batch)
        return self.force_group_gradient(f_pred, p, batch, atom_group)

    def group_gradients(
        self,
        batch: DescriptorBatch,
        groups: list[np.ndarray],
        n_lanes: int = 1,
        **attrs,
    ) -> list[tuple[np.ndarray, float]]:
        """Every group's ``(g, abe)`` from one force graph built at the
        current weights, the groups split over ``n_lanes`` lanes.

        A sweep only reads the graph, so the same ops run on the same
        inputs on any lane.  Each group records its spans under a
        ``fekf.update`` of kind ``force`` (plus ``attrs``); on more than
        one lane, under a private tracer per group that the caller's
        tracer adopts in group order once every lane has joined."""
        f_pred, p = self.force_graph(batch)
        parent = current_tracer() if n_lanes > 1 else None

        def sweep(gi: int):
            with Tracer() if parent is not None else nullcontext() as tracer:
                with _span("fekf.update", kind="force", group=gi, **attrs):
                    g, abe = self.force_group_gradient(f_pred, p, batch, groups[gi])
            return g, abe, tracer

        lanes = [list(range(k, len(groups), n_lanes)) for k in range(n_lanes)]
        out = []
        for g, abe, tracer in map_lanes(sweep, lanes):
            if tracer is not None:
                parent.adopt(tracer)
            out.append((g, abe))
        return out

    def apply_increment(self, *dws: np.ndarray) -> None:
        """w <- w + dw on this replica for each ``dw`` in turn (never
        their sum, so the bits match on every rank)."""
        for dw in dws:
            self.model.params.unflatten(self.model.params.flatten() + dw)

    # ------------------------------------------------------------------
    # rank-local task state
    # ------------------------------------------------------------------
    def set_shard(self, shard: DescriptorBatch) -> None:
        self.shard = shard

    def set_weights(self, w: np.ndarray) -> None:
        self.model.params.unflatten(np.asarray(w, dtype=np.float64))

    def get_weights(self) -> np.ndarray:
        return self.model.params.flatten()

    def apply_delta(self, *dws: np.ndarray) -> None:
        self.apply_increment(*(np.asarray(dw, dtype=np.float64) for dw in dws))

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

    def force_task(self, atom_groups: list[np.ndarray]) -> list[ShardResult]:
        """Each group's result off one force graph of the shard, built at
        this replica's current weights (:meth:`group_gradients`)."""
        shard = self._require_shard()
        if shard.batch_size == 0:
            return [self._zero_result() for _ in atom_groups]
        out = []
        for group, (g, abe) in zip(atom_groups, self.group_gradients(shard, atom_groups)):
            n_comp = shard.batch_size * len(group) * 3
            out.append(ShardResult(g, abe * n_comp, n_comp))
        return out


@dataclass
class WorkerSpec:
    """Picklable recipe for building rank workers.

    ``build`` deep-copies the model so every rank owns an independent,
    bit-identical replica of the weights at build time; executors that
    respawn a worker afterwards must re-sync with ``set_weights``.
    """

    model: DeePMD

    def build(self, rank: int = 0) -> GradientWorker:
        return GradientWorker(copy.deepcopy(self.model), rank=rank)
