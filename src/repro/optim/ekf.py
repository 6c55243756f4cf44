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

from dataclasses import dataclass

import numpy as np

from ..model.environment import DescriptorBatch
from ..model.network import DeePMD
from ..telemetry import metrics as _metrics
from ..telemetry.trace import span as _span
from .kalman import KalmanConfig, KalmanState
from .worker import GradientWorker


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
    fused_env:
        Route the descriptor through the hand-derived Opt1 kernel.
    compiled:
        Accepted and ignored.  The benchmark's pinned ``train_small``
        twin still passes it; the eager step is the only step.
    """

    name = "FEKF"

    def __init__(
        self,
        model: DeePMD,
        kalman_cfg: KalmanConfig | None = None,
        n_force_splits: int = 4,
        fused_env: bool = False,
        reuse_force_graph: bool = True,
        step_scale: float | None = None,
        seed: int = 0,
        compiled: bool | None = None,
    ):
        self.model = model
        cfg = kalman_cfg or KalmanConfig()
        self.kalman = KalmanState(model.num_params, model.params.layer_sizes(), cfg)
        self.n_force_splits = int(n_force_splits)
        #: the per-shard gradient math, shared (same model object) with the
        #: rank workers of the data-parallel trainer
        self.worker = GradientWorker(model, fused_env=fused_env)
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

    # ------------------------------------------------------------------
    # gradient building blocks (implementation lives in GradientWorker)
    # ------------------------------------------------------------------
    @property
    def fused_env(self) -> bool:
        """Route the descriptor through the hand-derived Opt1 kernel."""
        return self.worker.fused_env

    @fused_env.setter
    def fused_env(self, value: bool) -> None:
        self.worker.fused_env = value

    def stats(self) -> dict:
        """Optimizer-level diagnostics: the filter's step count, lambda
        and update count."""
        return {
            "step_count": self.step_count,
            "lambda": self.kalman.lam,
            "updates": self.kalman.updates,
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
            "fused_env": self.fused_env,
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
        for i, p in enumerate(k.p_mats):
            out[f"kalman/p{i}"] = p.copy(order="K")
        if k.cfg.fused_update:
            # the deferred downdates are filter state: saved as they are
            # (live columns only), never flushed to take a snapshot
            out["kalman/pending_beta"] = k.pend_beta[:, : k.pending].copy()
            for i, u in enumerate(k.pend_u):
                out[f"kalman/pending_u{i}"] = u[:, : k.pending].copy()
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
        n_blocks = len(k.p_mats)
        for i in range(n_blocks):
            key = f"kalman/p{i}"
            if key not in state or state[key].shape != k.p_mats[i].shape:
                raise ValueError("checkpoint block structure does not match")
        # absent before the deferred downdate existed: nothing pending
        pending = np.asarray(state.get("kalman/pending_beta", k.pend_beta[:, :0]))
        if pending.shape[1] >= k.pend_beta.shape[1]:
            raise ValueError(
                "checkpoint holds more pending downdates than this build defers"
            )
        # always copy: the fused update runs in place, and the caller's
        # snapshot must not be the array it then mutates
        order = "F" if k.cfg.fused_update else "C"
        for i in range(n_blocks):
            k.p_mats[i] = np.array(state[f"kalman/p{i}"], order=order)
        k.pending = pending.shape[1]
        if k.pending:
            k.pend_beta[:, : k.pending] = pending
            for i, u in enumerate(k.pend_u):
                u[:, : k.pending] = state[f"kalman/pending_u{i}"]
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
    def step_batch(self, batch: DescriptorBatch) -> dict[str, float]:
        """One training step: 1 energy update + n_force_splits force updates."""
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

        f_abes = []
        shared = self.worker.force_graph(batch) if self.reuse_force_graph else None
        for gi, group in enumerate(self.force_groups(batch.n_atoms)):
            with _span("fekf.update", kind="force", group=gi, step=self.step_count):
                if shared is not None:
                    g, f_abe = self.worker.force_group_gradient(*shared, batch, group)
                else:
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
