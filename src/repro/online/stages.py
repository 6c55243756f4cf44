"""The four stages of the explore -> gate -> label -> train loop.

:class:`~repro.online.OnlineLearner` runs each stage on its own thread,
connected by bounded queues, against a *live*
:class:`~repro.serve.InferenceService`.  Called one after another on
one thread, the same objects are the synchronous round (the regression
tests replay the original monolithic loop against that composition).

Every stage is deliberately free of threads and queues -- those belong
to the driver.  A stage is a plain callable over arrays and datasets,
which is what makes any schedule of them equivalent.  The one stage that owns
more than arrays is :class:`IncrementalTrainer`: one rank of the rank
runtime (:mod:`repro.runtime`) per committee member, holding that
member's persistent filter, plus the round telemetry (``train.step``
spans, per-member round times, shipped/returned bytes) the ranks send
home; its driver closes it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..data.dataset import Dataset
from ..data.framestore import ShardedFrameStore
from ..data.loader import make_loader
from ..md.cell import Cell
from ..md.integrator import LangevinIntegrator
from ..md.potentials import Potential
from ..model.calculator import DeePMDCalculator
from ..model.ensemble import ModelEnsemble
from ..model.network import DeePMD
from ..model.session import InferenceSession
from ..optim.base import load_ensemble_state
from ..optim.ekf import FEKF
from ..optim.kalman import KalmanConfig, bind_blas
from ..parallel.executor import Executor, make_executor
from ..runtime import capture_mode, merge_worker_telemetry, run_task
from ..telemetry import metrics as _metrics
from ..telemetry.trace import current_tracer, span as _span

__all__ = [
    "Explorer",
    "GateDecision",
    "UncertaintyGate",
    "Labeler",
    "MemberWorker",
    "MemberSpec",
    "IncrementalTrainer",
]


class Explorer:
    """MD exploration with the NNMD surrogate.

    Drives :class:`LangevinIntegrator` with a
    :class:`DeePMDCalculator` wrapping ``model`` and samples candidate
    frames every ``sample_every`` steps.  The surrogate model object is
    held by reference: the online loop hands in a private copy and
    refreshes it at segment boundaries via :meth:`refresh` -- MD must
    never read weights mid-mutation.
    """

    def __init__(
        self,
        model: DeePMD,
        species: np.ndarray,
        masses: np.ndarray,
        cell: Cell,
        *,
        md_steps: int = 120,
        sample_every: int = 10,
        timestep_fs: float = 2.0,
        friction: float = 0.02,
        rng: np.random.Generator,
    ):
        self.model = model
        self.species = np.asarray(species, dtype=np.int64)
        self.masses = np.asarray(masses, dtype=np.float64)
        self.cell = cell
        self.md_steps = int(md_steps)
        self.sample_every = int(sample_every)
        self.timestep_fs = float(timestep_fs)
        self.friction = float(friction)
        self.rng = rng

    @property
    def frames_per_segment(self) -> int:
        return self.md_steps // self.sample_every

    def explore(self, start: np.ndarray, temperature: float) -> np.ndarray:
        """One exploration segment from ``start``; returns (C, N, 3)."""
        calc = DeePMDCalculator(self.model, self.species)
        integ = LangevinIntegrator(
            calc, self.masses, self.cell,
            timestep=self.timestep_fs, temperature=temperature,
            friction=self.friction, rng=self.rng,
        )
        state = integ.initialize(start, temp=temperature)
        _, frames = integ.sample_frames(state, self.md_steps, self.sample_every)
        return frames

    def refresh(self, state: dict) -> None:
        """Load new surrogate weights (the concurrent driver's private
        walker copy follows the served model at segment boundaries)."""
        self.model.load_state_dict(state)


@dataclass
class GateDecision:
    """What the uncertainty gate decided about one candidate batch."""

    #: frames admitted to labeling (S, N, 3)
    selected: np.ndarray
    #: max force deviation of every candidate (C,)
    deviations: np.ndarray
    #: candidate indices of the selected frames
    kept: np.ndarray
    mean_deviation: float
    #: model versions that scored this batch (a singleton set unless the
    #: scorer violated single-version batching)
    versions: frozenset

    @property
    def n_candidates(self) -> int:
        return len(self.deviations)

    @property
    def n_selected(self) -> int:
        return len(self.kept)

    @property
    def labels_avoided(self) -> int:
        """Reference evaluations the gate saved on this batch."""
        return self.n_candidates - self.n_selected

    @property
    def mixed_version(self) -> bool:
        return len(self.versions) > 1


class UncertaintyGate:
    """Trust-band selection on the ensemble's max force deviation.

    ``scorer`` is any :class:`InferenceSession` whose predictions carry
    ``max_force_dev`` -- a live :class:`repro.serve.InferenceService`
    wrapping the committee in the online loop, or the bare
    :class:`ModelEnsemble`.  Candidates below ``lo`` are already learned,
    candidates above ``hi`` come from trajectories too wrong to trust;
    at most ``max_new_frames`` survive, highest deviation first.
    """

    def __init__(
        self,
        scorer: InferenceSession,
        species: np.ndarray,
        cell: Cell,
        *,
        lo: float = 0.05,
        hi: float = 1.0,
        max_new_frames: int = 16,
    ):
        self.scorer = scorer
        self.species = np.asarray(species, dtype=np.int64)
        self.cell = cell
        self.lo = float(lo)
        self.hi = float(hi)
        self.max_new_frames = int(max_new_frames)

    def select(self, frames: np.ndarray) -> GateDecision:
        preds = self.scorer.predict_many(frames, self.species, self.cell)
        if any(p.max_force_dev is None for p in preds):
            raise TypeError(
                "gate scorer predictions carry no max_force_dev; wrap an "
                "ensemble-backed session"
            )
        devs = np.array([p.max_force_dev for p in preds], dtype=np.float64)
        keep = (devs > self.lo) & (devs < self.hi)
        chosen = np.where(keep)[0]
        if len(chosen) > self.max_new_frames:
            order = np.argsort(-devs[chosen])
            chosen = chosen[order[: self.max_new_frames]]
        return GateDecision(
            selected=frames[chosen],
            deviations=devs,
            kept=chosen,
            mean_deviation=float(devs.mean()),
            versions=frozenset(p.model_version for p in preds),
        )


class Labeler:
    """Reference-potential labeling (the ab-initio stand-in)."""

    def __init__(self, reference: Potential, species: np.ndarray, cell: Cell):
        self.reference = reference
        self.species = np.asarray(species, dtype=np.int64)
        self.cell = cell

    def label(self, frames: np.ndarray, temperature: float) -> Dataset:
        energies = np.empty(len(frames))
        forces = np.empty_like(frames)
        for t, pos in enumerate(frames):
            energies[t], forces[t] = self.reference.energy_forces(pos, self.cell)
        return Dataset(
            name="active",
            positions=frames,
            energies=energies,
            forces=forces,
            species=self.species,
            cell=self.cell,
            temperatures=np.full(len(frames), temperature),
        )


class MemberWorker:
    """One committee member as a rank: a model and the persistent FEKF
    filter over it.  The rank *owns* the filter -- ``P`` is built here
    and only leaves as a checkpoint -- so a round is the one task that
    may never be replayed (``mutating_tasks``)."""

    #: rank-runtime declarations (see :func:`repro.runtime.run_task`)
    tasks = frozenset({"train_round", "get_state", "set_weights"})
    mutating_tasks = frozenset({"train_round"})
    span = "online.member_round"
    compute_tasks = {"train_round": {}}
    counter = "online.member_tasks"

    def __init__(
        self, model: DeePMD, optimizer: FEKF, batch_size: int, epochs: int,
        rank: int = 0,
    ):
        self.model = model
        self.optimizer = optimizer
        self.batch_size = int(batch_size)
        self.epochs = int(epochs)
        self.rank = int(rank)

    def train_round(self, pool, seed_offset: int) -> tuple[np.ndarray, int]:
        """``epochs`` passes over ``pool``: the loader and steps of
        ``Trainer(model, opt, pool, batch_size=, seed=seed_offset + 1)
        .run(epochs)`` without its per-epoch RMSE over the pool, which no
        caller of a round reads.  Returns (weights, steps taken)."""
        loader = make_loader(
            pool, self.batch_size, cfg=self.model.cfg, seed=seed_offset + 1
        )
        steps = 0
        for epoch in range(self.epochs):
            batches = loader.iter_batches(self.model.cfg, epoch)
            for b_idx, (_, batch) in enumerate(batches, start=1):
                with _span("train.step", epoch=epoch + 1, batch=b_idx):
                    self.optimizer.step_batch(batch)
                steps += 1
        return self.model.params.flatten(), steps

    def get_state(self) -> dict:
        """The filter state (a checkpoint pulls it; nothing else does)."""
        return self.optimizer.state_dict()

    def set_weights(self, state: tuple[dict, dict]) -> None:
        """Re-seed the member: (model state dict, filter state dict)."""
        model_state, filter_state = state
        self.model.load_state_dict(model_state)
        self.optimizer.load_state_dict(filter_state)


@dataclass
class MemberSpec:
    """Recipe for one :class:`MemberWorker` per committee member.

    A rank trains a private replica of its member (``live=False``); the
    parent's own members (checkpoint surface and crash fallback) wrap the
    live ensemble models."""

    models: list
    kalman_cfg: KalmanConfig
    batch_size: int
    epochs: int
    seed: int

    def build(self, rank: int = 0, live: bool = False) -> MemberWorker:
        model = self.models[rank] if live else copy.deepcopy(self.models[rank])
        optimizer = FEKF(
            model, KalmanConfig(**vars(self.kalman_cfg)), seed=self.seed + rank
        )
        return MemberWorker(model, optimizer, self.batch_size, self.epochs, rank)


class IncrementalTrainer:
    """Persistent per-member FEKF filters over an accumulating label set.

    One :class:`FEKF` per committee member, constructed once and reused
    across every round -- the filter's P matrix is where minutes-scale
    convergence lives, so it must never be rebuilt mid-loop.  Each filter
    lives on its own rank of the rank runtime (:mod:`repro.runtime`): a
    round sends every rank the label pool and the seed offset and gets
    the member's weights back, which are loaded into ``ensemble`` --
    ``P`` is built on the rank and never moves (the paper's Sec. 3.3
    argument, applied to the loop).  The pool is ``label_store``, a live
    :class:`~repro.data.framestore.ShardedFrameStore` that every admitted
    segment is appended into: it is durable across crashes, never binds
    the corpus size to RAM, which is what an unbounded label stream
    needs, and travels to a rank as its path (reopened read-only), so a
    round's traffic does not grow with the pool.  ``executor`` is the
    usual ``"serial"`` / ``"thread"`` / ``"process"`` / instance /
    ``None`` for ``$REPRO_EXECUTOR``; unset, this one stage defaults to
    ``process``:
    members train beside each other and beside the explorer instead of
    passing one interpreter lock around.  The arithmetic on a rank is the
    same under every backend, so weights are bit-identical across them.

    The parent sees filter state only when it asks: :attr:`optimizers`
    pulls it into parent-side filters over ``ensemble.models`` (what a
    checkpoint saves and a caller may step by hand; :meth:`restore`
    loads a checkpoint into them without a pull), and the next round
    hands whatever they then hold back to the ranks.  Those
    parent-side filters are also the crash fallback: a rank that dies or
    raises mid-round is never replayed -- the round re-runs in this
    thread from the last pulled filter state (or a fresh filter, counted
    as ``online.filter_restarts``), and the healed ranks are re-seeded
    per member from it.
    """

    def __init__(
        self,
        ensemble: ModelEnsemble,
        *,
        label_store: ShardedFrameStore,
        kalman_cfg: KalmanConfig | None = None,
        batch_size: int = 4,
        epochs_per_round: int = 3,
        seed: int = 0,
        executor: "str | Executor | None" = None,
    ):
        self.ensemble = ensemble
        self.batch_size = int(batch_size)
        self.epochs_per_round = int(epochs_per_round)
        self._spec = MemberSpec(
            models=ensemble.models,
            kalman_cfg=kalman_cfg or KalmanConfig(blocksize=2048, fused_update=True),
            batch_size=self.batch_size,
            epochs=self.epochs_per_round,
            seed=seed,
        )
        #: one rank per committee member, each owning that member's filter
        self.executor = make_executor(
            executor, len(ensemble.models), default="process"
        )
        #: called with the member index as each member's round result
        #: arrives (the online loop beats its trainer heartbeat on it)
        self.on_member_result: Optional[Callable[[int], None]] = None
        self.executor.on_result = self._member_done
        bind_blas()  # before process ranks fork from this one
        self.executor.start(self._spec)
        #: parent-side members over the live ensemble models, built on
        #: first demand; ``_local_current`` says their filters are the
        #: live ones (pulled, restored or trained here since the ranks
        #: last ran) and must be handed back before the next round
        self._local: Optional[list[MemberWorker]] = None
        self._local_current = False
        #: the label pool: live append target, out of core
        self.label_store = label_store

    def close(self) -> None:
        """Reap the ranks (idempotent)."""
        self.executor.close()

    # ------------------------------------------------------------------
    @property
    def pool_frames(self) -> int:
        return self.label_store.n_frames

    def accumulate(self, new: Dataset) -> None:
        """Append newly labeled frames to the training pool."""
        self.label_store.append_dataset(new)

    @property
    def ready(self) -> bool:
        """Enough accumulated labels for at least one full minibatch."""
        return self.pool_frames >= self.batch_size

    # ------------------------------------------------------------------
    # rank rounds
    # ------------------------------------------------------------------
    def _member_done(self, rank: int) -> None:
        if self.on_member_result is not None:
            self.on_member_result(rank)

    def _members(self, count_restarts: bool = False) -> list[MemberWorker]:
        """The parent-side members, built on first use."""
        if self._local is None:
            n = len(self.ensemble.models)
            self._local = [self._spec.build(k, live=True) for k in range(n)]
            if count_restarts:
                _metrics.REGISTRY.counter("online.filter_restarts").inc(n)
        return self._local

    def _round(self, calls: list[tuple[str, tuple]]) -> list:
        """One call per member through the rank runtime."""
        ex = self.executor
        sent, received = ex.bytes_sent, ex.bytes_received
        tracer = current_tracer()
        results = ex.run_resilient(calls, self._fallback, capture_mode(tracer))
        merge_worker_telemetry(results, tracer, executor=ex.name)
        reg = _metrics.REGISTRY
        reg.counter("online.shipped_bytes").inc(ex.bytes_sent - sent)
        reg.counter("online.returned_bytes").inc(ex.bytes_received - received)
        return results

    def _fallback(self, calls, capture) -> list:
        """The crashed round, in this thread, on the parent-side members:
        their filters hold the last pulled state (fresh ones are counted
        as restarts) and from here on they are the live ones."""
        members = self._members(count_restarts=True)
        self._local_current = True
        results = []
        for worker, (method, args) in zip(members, calls):
            results.append(run_task(worker, method, args, capture))
            self._member_done(worker.rank)
        return results

    def sync_ranks(self) -> None:
        """Hand the filters back to the ranks when the parent-side copy
        is the live one (after a pull, a restore or a crashed round),
        respawning and re-seeding per member if the pool is degraded."""
        if not self._local_current:
            return
        states = [
            (w.model.state_dict(), w.optimizer.state_dict())
            for w in self._members()
        ]
        if not self.executor.degraded:
            self._round([("set_weights", (s,)) for s in states])
        if self.executor.degraded:  # possibly found out just now
            self.executor.heal(self._spec, states)
        self._local_current = False

    @property
    def optimizers(self) -> list:
        """Parent-side :class:`FEKF` filters over ``ensemble.models``
        carrying every member's current filter state (pulled from the
        ranks on access; handed back before the next round)."""
        if not self._local_current:
            results = self._round([("get_state", ())] * len(self.ensemble.models))
            if not self._local_current:  # else: crashed, the copy stands
                for worker, res in zip(self._members(), results):
                    worker.optimizer.load_state_dict(res.payload)
                self._local_current = True
        return [w.optimizer for w in self._members()]

    def restore(self, path: str) -> None:
        """Load a :func:`~repro.optim.base.save_ensemble_state` file into
        the parent-side members and hand it to the ranks.  Nothing is
        pulled first: the ranks' filters are about to be overwritten."""
        members = self._members()
        load_ensemble_state(path, self.ensemble.models, [w.optimizer for w in members])
        self._local_current = True
        self.sync_ranks()

    def rank_health(self) -> dict:
        """Backend, per-member rank liveness and the degraded flag."""
        ex = self.executor
        return {"executor": ex.name, "alive": ex.alive(), "degraded": ex.degraded}

    def train_round(self, seed_offset: int) -> None:
        """Fine-tune every member on the accumulated pool."""
        self.sync_ranks()
        self.label_store.flush()  # a rank reopens the store by path
        n = len(self.ensemble.models)
        results = self._round([("train_round", (self.label_store, seed_offset))] * n)
        steps = 0
        for k, (model, res) in enumerate(zip(self.ensemble.models, results)):
            weights, member_steps = res.payload
            model.params.unflatten(weights)
            steps += member_steps
            _metrics.REGISTRY.histogram("online.train_round_s", member=k).observe(
                res.telemetry.wall_s
            )
        _metrics.REGISTRY.counter("train.steps").inc(steps)
        self.sync_ranks()  # a crashed round ran here: heal and re-seed now
