"""Extended-Kalman-Filter optimizers: FEKF (the paper), RLEKF, Naive-EKF.

All three share the per-batch training protocol of the paper (Sec. 4
"Model parameters"): each minibatch triggers **one** Kalman update driven
by the total energy and **four** updates driven by the forces of disjoint
atom groups, with the sign-alignment trick of Algorithm 1 lines 3-5 (flip
the prediction wherever it exceeds the label so the Kalman step always
moves predictions toward labels, and use the mean *absolute* error ABE as
the innovation).

They differ in how a multi-sample minibatch is digested:

* :class:`FEKF` (funnel, "aggregation-then-computing"): per-sample
  gradients and absolute errors are reduced *first*; a single Kalman
  update per (energy / force-group) follows, with the increment scaled by
  sqrt(batch size) (Eq. 2).  One shared P -- the memory and communication
  win of Sec. 3.3.
* :class:`NaiveEKF` (fusiform, "computing-then-aggregation"): every sample
  runs its own full Kalman update against its own P replica; the weight
  increments are averaged.  Memory grows as batch_size x |P| and every P
  replica diverges, which is exactly why the paper rejects it.
* :class:`RLEKF`: the instance-by-instance predecessor [23]; equivalent to
  FEKF with batch size 1 and unit scale.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from ..autograd.instrument import thread_observed
from ..model.environment import DescriptorBatch
from ..model.network import DeePMD
from ..telemetry import metrics as _metrics
from ..telemetry.trace import Tracer, current_tracer
from ..telemetry.trace import span as _span
from .kalman import KalmanConfig, KalmanState
from .lanes import lane_count, map_lanes
from .worker import GradientWorker

#: batches with fewer neighbour-level activation values than this
#: (``B * N * Nm * M``: frames x atoms x neighbour slots x embedding
#: width) sweep their force groups on one lane.  A constant of the
#: thread handoff, not a knob: four group sweeps on the scaled net took
#: 17.5 -> 29.2 ms on one -> two lanes at bs 1, 29.6 -> 32.4 at bs 4
#: (26k values), 46.8 -> 43.7 at bs 8 (52k) and 201.9 -> 121.5 at bs 32;
#: the paper net crosses over in the same range (DESIGN.md section 5).
SWEEP_LANES_MIN = 1 << 15


@dataclass
class UpdateStats:
    """Per-batch diagnostics returned by ``step_batch``."""

    energy_abe: float
    force_abe: float
    lam: float
    updates: int

    def as_dict(self) -> dict[str, float]:
        return {
            "energy_abe": self.energy_abe,
            "force_abe": self.force_abe,
            "lambda": self.lam,
            "updates": float(self.updates),
        }


class FEKF:
    """Fast Extended Kalman Filter (paper Algorithm 1, funnel dataflow).

    Parameters
    ----------
    model:
        The DeePMD model whose flat weight vector is filtered.
    kalman_cfg:
        Kalman hyperparameters; defaults follow Sec. 3.2 (lambda0=0.98,
        nu=0.9987, blocksize 10240).  Use
        ``KalmanConfig.for_batch_size(bs)`` for the large-batch guidance.
    n_force_splits:
        Number of force-group updates per batch (paper: 4).
    fused_env, compiled:
        Accepted and ignored.  The benchmark's pinned adapter still passes
        both; the descriptor kernel is the model's
        (:attr:`DeePMD.environment`) and the eager step is the only step.
    """

    name = "FEKF"

    def __init__(
        self,
        model: DeePMD,
        kalman_cfg: KalmanConfig | None = None,
        n_force_splits: int = 4,
        reuse_force_graph: bool = True,
        step_scale: float | None = None,
        seed: int = 0,
        fused_env: bool | None = None,
        compiled: bool | None = None,
    ):
        self.model = model
        cfg = kalman_cfg or KalmanConfig()
        self.kalman = KalmanState(model.num_params, model.params.layer_sizes(), cfg)
        self.n_force_splits = int(n_force_splits)
        #: the per-shard gradient math, shared (same model object) with the
        #: rank workers of the data-parallel trainer
        self.worker = GradientWorker(model)
        #: when True, the n_force_splits group updates share one force
        #: graph (H evaluated at the weights before the first group update)
        #: instead of a fresh forward per group -- a large CPU saving with
        #: negligible convergence impact (see the ablation bench).  Set
        #: False for the paper-exact per-update protocol.
        self.reuse_force_graph = reuse_force_graph
        #: quasi-learning-rate factor of Eq. 2; None selects the paper's
        #: sqrt(batch size).  The Figure 4 experiment sweeps this.
        self.step_scale = step_scale
        self._rng = np.random.default_rng(seed)
        self.step_count = 0
        self._force_lanes = 0

    # ------------------------------------------------------------------
    # gradient building blocks (implementation lives in GradientWorker)
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Optimizer-level diagnostics: the filter's step count, lambda
        and update count, and ``force_lanes``, the lanes the last step
        swept its force groups on (0 before the first step)."""
        return {
            "step_count": self.step_count,
            "lambda": self.kalman.lam,
            "updates": self.kalman.updates,
            "force_lanes": self._force_lanes,
        }

    def force_groups(self, n_atoms: int) -> list[np.ndarray]:
        """The per-batch disjoint atom groups driving the force updates
        (consumes one RNG draw -- call exactly once per step)."""
        perm = self._rng.permutation(n_atoms)
        return [np.sort(g) for g in np.array_split(perm, self.n_force_splits) if g.size]

    def apply_increment(self, dw: np.ndarray) -> None:
        """w <- w + dw (the shared weight-update step of Algorithm 1)."""
        self.worker.apply_increment(dw)

    # ------------------------------------------------------------------
    # optimizer protocol: state + hyperparameters
    # ------------------------------------------------------------------
    @property
    def hyperparams(self) -> dict:
        """Readable hyperparameter summary (the ``Optimizer`` protocol)."""
        cfg = self.kalman.cfg
        return {
            "name": self.name,
            "lambda0": cfg.lambda0,
            "nu": cfg.nu,
            "blocksize": cfg.blocksize,
            "coupled_gain": cfg.coupled_gain,
            "fused_update": cfg.fused_update,
            "p_trace_cap": cfg.p_trace_cap,
            "max_step_norm": cfg.max_step_norm,
            "n_force_splits": self.n_force_splits,
            "reuse_force_graph": self.reuse_force_graph,
            "step_scale": self.step_scale,
        }

    def state_dict(self) -> dict[str, np.ndarray]:
        """Full filter state as flat arrays (same keys the npz checkpoints
        have always used, so old checkpoint files stay loadable)."""
        k = self.kalman
        out: dict[str, np.ndarray] = {
            "kalman/lam": np.array(k.lam),
            "kalman/updates": np.array(k.updates),
            "kalman/p_scales": np.array(k.p_scales),
            "kalman/fused": np.array(int(k.cfg.fused_update)),
            "kalman/step_count": np.array(self.step_count),
        }
        st = self._rng.bit_generator.state
        if st.get("bit_generator") == "PCG64":
            # the group-shuffle RNG advances one draw per step; carrying
            # its 128-bit PCG64 state (as uint64 quads) makes a resumed
            # run continue bit-identically to the uninterrupted one
            m = (1 << 64) - 1
            s, inc = st["state"]["state"], st["state"]["inc"]
            out["kalman/rng"] = np.array(
                [s & m, (s >> 64) & m, inc & m, (inc >> 64) & m,
                 st["has_uint32"], st["uinteger"]],
                dtype=np.uint64,
            )
        out.update(k.p_state())  # the P blocks and the pending downdates
        return out

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore filter state produced by :meth:`state_dict`.

        The block structure and fused/naive storage layout must match
        this optimizer's ``KalmanConfig``; mismatches raise.
        """
        if "kalman/lam" not in state:
            raise KeyError("state holds no EKF optimizer state ('kalman/lam' missing)")
        k = self.kalman
        if bool(state["kalman/fused"]) != k.cfg.fused_update:
            raise ValueError(
                "checkpoint P storage layout (fused vs naive) does not match "
                "the optimizer's KalmanConfig"
            )
        k.load_p_state(state)
        k.p_scales = [float(c) for c in np.asarray(state["kalman/p_scales"])]
        k.lam = float(state["kalman/lam"])
        k.updates = int(state["kalman/updates"])
        if "kalman/step_count" in state:  # absent in pre-telemetry files
            self.step_count = int(state["kalman/step_count"])
        if "kalman/rng" in state:  # absent in older checkpoints
            r = np.asarray(state["kalman/rng"], dtype=np.uint64)
            st = self._rng.bit_generator.state
            if st.get("bit_generator") == "PCG64":
                st["state"]["state"] = int(r[0]) | (int(r[1]) << 64)
                st["state"]["inc"] = int(r[2]) | (int(r[3]) << 64)
                st["has_uint32"] = int(r[4])
                st["uinteger"] = int(r[5])
                self._rng.bit_generator.state = st

    # ------------------------------------------------------------------
    def _sweep_lanes(self, batch: DescriptorBatch, n_groups: int) -> int:
        """Lanes for the force-group sweeps: one per idle core
        (:func:`~repro.optim.lanes.lane_count`), but one for a small batch
        (the handoff costs more than the second core saves) and one under
        an op-stream observer on this thread (its sink records only this
        thread's launches)."""
        width = self.model.cfg.embedding_widths[-1]
        if batch.idx_flat.size * width < SWEEP_LANES_MIN or thread_observed():
            return 1
        return lane_count(n_groups)

    def _group_gradients(
        self, batch: DescriptorBatch, groups: list[np.ndarray]
    ) -> list[tuple[np.ndarray, float]]:
        """Every group's ``(g, abe)`` from one shared force graph, the
        groups split over lanes.

        A sweep only reads the graph, so the same ops run on the same
        inputs on any lane.  Each group records its spans under a
        ``fekf.update`` of kind ``force``; on more than one lane, under a
        private tracer per group that the caller's tracer adopts in group
        order once every lane has joined."""
        f_pred, p = self.worker.force_graph(batch)
        n_lanes = self._sweep_lanes(batch, len(groups))
        self._force_lanes = n_lanes
        parent = current_tracer() if n_lanes > 1 else None
        step = self.step_count

        def sweep(gi: int):
            with Tracer() if parent is not None else nullcontext() as tracer:
                with _span("fekf.update", kind="force", group=gi, step=step):
                    g, abe = self.worker.force_group_gradient(
                        f_pred, p, batch, groups[gi]
                    )
            return g, abe, tracer

        lanes = [list(range(k, len(groups), n_lanes)) for k in range(n_lanes)]
        out = []
        for g, abe, tracer in map_lanes(sweep, lanes):
            if tracer is not None:
                parent.adopt(tracer)
            out.append((g, abe))
        return out

    def step_batch(self, batch: DescriptorBatch) -> dict[str, float]:
        """One training step: 1 energy update + n_force_splits force updates.

        Under the shared force graph the groups' gradients are all swept
        before the first force update, on up to one lane per idle core
        (:meth:`_group_gradients`); the force updates then run in group
        order, so the result does not depend on the lane count."""
        scale = (
            float(np.sqrt(batch.batch_size))
            if self.step_scale is None
            else float(self.step_scale)
        )
        with _span("fekf.update", kind="energy", step=self.step_count):
            g, e_abe = self.worker.energy_gradient(batch)
            with _span("fekf.kalman"):
                dw = self.kalman.update(g, e_abe, scale)
        self.apply_increment(dw)

        groups = self.force_groups(batch.n_atoms)
        f_abes = []
        if self.reuse_force_graph:
            # every group's gradient comes from the one graph built at the
            # post-energy-update weights (unflatten replaces the weight
            # arrays, so no increment reaches it)
            for gi, (g, f_abe) in enumerate(self._group_gradients(batch, groups)):
                with _span("fekf.kalman", kind="force", group=gi, step=self.step_count):
                    dw = self.kalman.update(g, f_abe, scale)
                self.apply_increment(dw)
                f_abes.append(f_abe)
        else:
            self._force_lanes = 1
            for gi, group in enumerate(groups):
                with _span("fekf.update", kind="force", group=gi, step=self.step_count):
                    g, f_abe = self.worker.force_gradient(batch, group)
                    with _span("fekf.kalman"):
                        dw = self.kalman.update(g, f_abe, scale)
                self.apply_increment(dw)
                f_abes.append(f_abe)
        self.step_count += 1
        _metrics.REGISTRY.counter("optim.steps", optimizer=self.name).inc()
        _metrics.REGISTRY.gauge("kalman.lambda").set(self.kalman.lam)
        _metrics.REGISTRY.counter("kalman.updates").inc(1 + len(f_abes))
        return UpdateStats(
            energy_abe=e_abe,
            force_abe=float(np.mean(f_abes)) if f_abes else 0.0,
            lam=self.kalman.lam,
            updates=self.kalman.updates,
        ).as_dict()


class RLEKF(FEKF):
    """Reorganized Layer-wise EKF [23]: instance-by-instance updating.

    The single-sample degenerate case of the funnel dataflow (scale
    sqrt(1) = 1); enforced batch size 1 reproduces its wall-clock profile.
    """

    name = "RLEKF"

    def step_batch(self, batch: DescriptorBatch) -> dict[str, float]:
        if batch.batch_size != 1:
            raise ValueError(
                "RLEKF updates instance-by-instance; feed batches of size 1 "
                "(use FEKF for multi-sample minibatches)"
            )
        return super().step_batch(batch)


class NaiveEKF(FEKF):
    """Fusiform ("computing-then-aggregation") multi-sample EKF.

    Statistically averages per-sample Kalman increments E(K * ABE), each
    sample filtering against its own P replica (Table 2, row 3).  Kept as
    the paper's strawman: its P memory scales with the batch size and its
    replicas would all need to be communicated in data-parallel training.
    """

    name = "NaiveEKF"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._replicas: list[KalmanState] | None = None

    def _ensure_replicas(self, batch_size: int) -> list[KalmanState]:
        if self._replicas is None:
            self._replicas = [self.kalman] + [
                self.kalman.clone() for _ in range(batch_size - 1)
            ]
        if len(self._replicas) < batch_size:
            self._replicas += [
                self.kalman.clone() for _ in range(batch_size - len(self._replicas))
            ]
        return self._replicas[:batch_size]

    def p_memory_bytes(self) -> int:
        """Total P footprint across replicas (the Sec. 3.3 blow-up)."""
        reps = self._replicas or [self.kalman]
        return sum(state.p_memory_bytes() for state in reps)

    def _single_frame(self, batch: DescriptorBatch, i: int) -> DescriptorBatch:
        return batch.frame_slice(i, i + 1)

    def step_batch(self, batch: DescriptorBatch) -> dict[str, float]:
        bs = batch.batch_size
        replicas = self._ensure_replicas(bs)
        base = self.model.params.flatten()

        # energy phase: per-sample KF update from the same starting weights
        increments = np.zeros_like(base)
        e_abes = []
        for i in range(bs):
            fb = self._single_frame(batch, i)
            g, abe = self.worker.energy_gradient(fb)
            increments += replicas[i].update(g, abe, 1.0)
            e_abes.append(abe)
        self.model.params.unflatten(base + increments / bs)

        # force phases
        f_abes = []
        for group in self.force_groups(batch.n_atoms):
            base = self.model.params.flatten()
            increments = np.zeros_like(base)
            for i in range(bs):
                fb = self._single_frame(batch, i)
                g, abe = self.worker.force_gradient(fb, group)
                increments += replicas[i].update(g, abe, 1.0)
                f_abes.append(abe)
            self.model.params.unflatten(base + increments / bs)
        self.step_count += 1
        return UpdateStats(
            energy_abe=float(np.mean(e_abes)),
            force_abe=float(np.mean(f_abes)) if f_abes else 0.0,
            lam=self.kalman.lam,
            updates=self.kalman.updates,
        ).as_dict()
