"""Concurrent (active) learning: the DP-GEN-style loop the paper's
"online learning" vision points at.

Each round:

1. **explore** -- drive MD with the ensemble's first model (the NNMD
   surrogate) from the current pool of configurations, at the round's
   temperature, collecting candidate frames;
2. **select** -- score candidates by the ensemble's maximum atomic force
   deviation and keep those inside the trust band
   ``lo < dev < hi`` (below lo: already learned; above hi: the surrogate
   is so wrong the trajectory itself is unreliable);
3. **label** -- evaluate the selected frames with the reference potential
   (the ab-initio stand-in);
4. **train** -- fine-tune every ensemble member with its own persistent
   FEKF filter on the accumulated labeled data.

Minutes-scale training (the paper's contribution) is what makes running
this loop dozens of times practical.

The four phases are implemented by the stage objects in
:mod:`repro.online.stages` -- :class:`~repro.online.Explorer`,
:class:`~repro.online.UncertaintyGate`, :class:`~repro.online.Labeler`,
:class:`~repro.online.IncrementalTrainer`.  :class:`ActiveLearner` is
the thin *synchronous* driver over them (one round at a time, in-process
scoring); :class:`repro.online.OnlineLearner` runs the same stages
concurrently against a live :class:`repro.serve.InferenceService`.  The
regression tests hold the two drivers to the same stage semantics --
this batch loop is bit-identical to the pre-decomposition monolith.

Round phases are recorded as telemetry spans (``active.explore`` /
``active.select`` / ``active.label`` / ``active.train``) on a per-round
tracer that merges into the ambient tracer when one is installed --
``RoundStats.train_seconds`` comes from those spans, not from ad-hoc
wall-clock reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.dataset import Dataset
from ..md.cell import Cell
from ..md.potentials import Potential
from ..model.ensemble import ModelEnsemble
from ..model.session import InferenceSession
from ..online.stages import Explorer, IncrementalTrainer, Labeler, UncertaintyGate
from ..optim.kalman import KalmanConfig
from ..telemetry.trace import Tracer, current_tracer


@dataclass
class RoundStats:
    """Diagnostics for one active-learning round."""

    round_index: int
    temperature: float
    n_candidates: int
    n_selected: int
    mean_deviation: float
    train_seconds: float
    rmse_after: float


@dataclass
class ActiveLearningConfig:
    """Knobs of the loop (DP-GEN-flavoured defaults)."""

    #: trust band on the max force deviation (eV/A)
    select_lo: float = 0.05
    select_hi: float = 1.0
    #: MD exploration per round
    md_steps: int = 120
    sample_every: int = 10
    timestep_fs: float = 2.0
    friction: float = 0.02
    #: training per round
    epochs_per_round: int = 3
    batch_size: int = 4
    max_new_frames: int = 16


class ActiveLearner:
    """Runs the explore/select/label/train loop, one round at a time.

    ``scorer`` optionally overrides the session used for the select
    phase -- any :class:`InferenceSession` whose predictions carry
    ``max_force_dev`` (the ensemble itself by default; a batched
    :class:`repro.serve.InferenceService` in the online setting).
    ``executor`` selects where the per-member training ranks run (see
    :class:`~repro.online.IncrementalTrainer`); :meth:`close` reaps them.
    """

    def __init__(
        self,
        ensemble: ModelEnsemble,
        reference: Potential,
        species: np.ndarray,
        masses: np.ndarray,
        cell: Cell,
        cfg: ActiveLearningConfig | None = None,
        kalman_cfg: KalmanConfig | None = None,
        initial_data: Dataset | None = None,
        seed: int = 0,
        scorer: InferenceSession | None = None,
        executor=None,
    ):
        self.ensemble = ensemble
        self.species = np.asarray(species, dtype=np.int64)
        self.masses = np.asarray(masses, dtype=np.float64)
        self.cell = cell
        self.cfg = cfg or ActiveLearningConfig()
        self._rng = np.random.default_rng(seed)
        # exploration walks the live first member by reference: in the
        # synchronous loop training and MD never overlap, so the
        # freshest weights are always safe to read
        self.explorer = Explorer(
            ensemble.models[0], self.species, self.masses, cell,
            md_steps=self.cfg.md_steps,
            sample_every=self.cfg.sample_every,
            timestep_fs=self.cfg.timestep_fs,
            friction=self.cfg.friction,
            rng=self._rng,
        )
        self.gate = UncertaintyGate(
            scorer if scorer is not None else ensemble,
            self.species, cell,
            lo=self.cfg.select_lo, hi=self.cfg.select_hi,
            max_new_frames=self.cfg.max_new_frames,
        )
        self.labeler = Labeler(reference, self.species, cell)
        self.trainer = IncrementalTrainer(
            ensemble,
            kalman_cfg=kalman_cfg,
            batch_size=self.cfg.batch_size,
            epochs_per_round=self.cfg.epochs_per_round,
            seed=seed,
            executor=executor,
        )
        self.history: list[RoundStats] = []
        #: DP-GEN warm start: without initial labeled data the untrained
        #: surrogate drives exploration into unphysical regions and the
        #: loop bootstraps on garbage labels
        if initial_data is not None:
            self.trainer.accumulate(initial_data)
            self.trainer.train_round(seed_offset=-1)

    def close(self) -> None:
        """Reap the trainer's ranks (idempotent)."""
        self.trainer.close()

    def __enter__(self) -> "ActiveLearner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- stage state, re-exported for inspection -----------------------
    @property
    def scorer(self) -> InferenceSession:
        """The select-phase session (ensemble committee by default)."""
        return self.gate.scorer

    @scorer.setter
    def scorer(self, session: InferenceSession) -> None:
        self.gate.scorer = session

    @property
    def reference(self) -> Potential:
        return self.labeler.reference

    @property
    def optimizers(self) -> list:
        """The persistent per-member FEKF filters (pulled from the
        trainer's ranks on access)."""
        return self.trainer.optimizers

    @property
    def labeled(self) -> Dataset | None:
        """The accumulated labeled pool."""
        return self.trainer.labeled

    @labeled.setter
    def labeled(self, dataset: Dataset | None) -> None:
        self.trainer.labeled = dataset

    # ------------------------------------------------------------------
    def run_round(self, start: np.ndarray, temperature: float) -> RoundStats:
        """One explore/select/label/train round starting from ``start``."""
        ambient = current_tracer()
        tracer = Tracer(keep_events=True)
        index = len(self.history) + 1
        with tracer:
            with tracer.span("active.explore", round=index):
                candidates = self.explorer.explore(start, temperature)
            with tracer.span("active.select", round=index):
                decision = self.gate.select(candidates)
            if decision.n_selected:
                with tracer.span("active.label", round=index):
                    self.trainer.accumulate(
                        self.labeler.label(decision.selected, temperature)
                    )
            if self.trainer.ready:
                with tracer.span("active.train", round=index):
                    self.trainer.train_round(seed_offset=len(self.history))
        # label+train wall time, read off the round's own spans
        train_seconds = sum(
            e.wall_s
            for e in tracer.events
            if e.name in ("active.label", "active.train")
        )
        if ambient is not None:
            ambient.adopt(tracer)
        rmse = (
            self.ensemble.models[0]
            .evaluate_rmse(self.labeled, max_frames=16)["total_rmse"]
            if self.labeled is not None
            else float("nan")
        )
        stats = RoundStats(
            round_index=index,
            temperature=float(temperature),
            n_candidates=decision.n_candidates,
            n_selected=decision.n_selected,
            mean_deviation=decision.mean_deviation,
            train_seconds=train_seconds,
            rmse_after=rmse,
        )
        self.history.append(stats)
        return stats
