"""Model ensembles with force-deviation uncertainty.

The online-learning workflow the paper motivates (Figure 1) is, in
practice, the DP-GEN concurrent-learning loop: train an *ensemble* of
models differing only in initialization, drive MD with one of them, and
use the ensemble's **maximum atomic force deviation** as the uncertainty
signal that decides which configurations need new reference labels.
This module provides that ensemble.

:class:`ModelEnsemble` implements the
:class:`~repro.model.session.InferenceSession` protocol: frame-level
``predict(positions, species, cell)`` calls return
:class:`~repro.model.session.Prediction` objects carrying the committee
mean plus the uncertainty fields.  The pre-protocol batched entry point
(``predict(DescriptorBatch) -> EnsemblePrediction``) is kept for training
code that already holds an assembled batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .environment import DescriptorBatch
from .network import DeePMD
from .session import InferenceSession


@dataclass
class EnsemblePrediction:
    """Mean predictions plus the per-frame uncertainty signal."""

    energy: np.ndarray  # (B,) ensemble mean
    forces: np.ndarray  # (B, N, 3) ensemble mean
    energy_std: np.ndarray  # (B,)
    #: max over atoms of the std (over models) of the force vector norm --
    #: DP-GEN's "model deviation" selection criterion
    max_force_dev: np.ndarray  # (B,)


class ModelEnsemble(InferenceSession):
    """A committee of DeePMD models sharing architecture and data stats."""

    def __init__(self, models: list[DeePMD]):
        if not models:
            raise ValueError("ensemble needs at least one model")
        if len({m.num_params for m in models}) != 1:
            raise ValueError("ensemble models must share one architecture")
        self.models = list(models)

    @classmethod
    def for_dataset(cls, dataset, cfg, n_models: int = 4, seed: int = 0) -> "ModelEnsemble":
        """Build ``n_models`` with different weight seeds (DP-GEN style)."""
        return cls([DeePMD.for_dataset(dataset, cfg, seed=seed + k) for k in range(n_models)])

    def __len__(self) -> int:
        return len(self.models)

    @property
    def cfg(self):
        return self.models[0].cfg

    # ------------------------------------------------------------------
    def predict(self, batch, species=None, cell=None):
        """Two entry points behind one name:

        * ``predict(batch: DescriptorBatch)`` -- the pre-protocol batched
          path, returns an :class:`EnsemblePrediction`;
        * ``predict(positions, species, cell)`` -- the
          :class:`InferenceSession` protocol, returns a single
          :class:`~repro.model.session.Prediction`.
        """
        if isinstance(batch, DescriptorBatch):
            return self._predict_batch(batch)
        if species is None or cell is None:
            raise TypeError(
                "predict(positions, species, cell) requires species and cell "
                "(or pass an assembled DescriptorBatch)"
            )
        return InferenceSession.predict(self, batch, species, cell)

    def _predict_batch(self, batch: DescriptorBatch) -> EnsemblePrediction:
        energies, forces = [], []
        for model in self.models:
            out = model.predict(batch)
            energies.append(out.energy)
            forces.append(out.forces)
        e = np.stack(energies)  # (M, B)
        f = np.stack(forces)  # (M, B, N, 3)
        force_dev = np.linalg.norm(f - f.mean(axis=0), axis=-1)  # (M, B, N)
        per_atom_dev = np.sqrt(np.mean(force_dev**2, axis=0))  # (B, N)
        return EnsemblePrediction(
            energy=e.mean(axis=0),
            forces=f.mean(axis=0),
            energy_std=e.std(axis=0),
            max_force_dev=per_atom_dev.max(axis=1),
        )

    def predict_descriptor_batch(self, batch: DescriptorBatch) -> dict:
        ep = self._predict_batch(batch)
        return {
            "energy": ep.energy,
            "forces": ep.forces,
            "energy_std": ep.energy_std,
            "max_force_dev": ep.max_force_dev,
        }

    def max_force_deviation(self, batch: DescriptorBatch) -> np.ndarray:
        """Just the selection signal (B,)."""
        return self._predict_batch(batch).max_force_dev

    def evaluate_rmse(self, dataset, max_frames: int = 128) -> dict[str, float]:
        """Committee-mean energy (per atom) / force RMSE over (a sample
        of) a labeled dataset -- the held-out quality signal the online
        loop's swap promotion gate decides on.  Frame sampling matches
        :meth:`DeePMD.evaluate_rmse` so single-model and ensemble curves
        are comparable."""
        from .environment import make_batch

        take = np.arange(dataset.n_frames)
        if dataset.n_frames > max_frames:
            take = np.linspace(0, dataset.n_frames - 1, max_frames).astype(int)
        batch = make_batch(dataset, take, self.cfg)
        ep = self._predict_batch(batch)
        n = dataset.n_atoms
        e_rmse = float(np.sqrt(np.mean(((ep.energy - batch.energies) / n) ** 2)))
        f_rmse = float(np.sqrt(np.mean((ep.forces - batch.forces) ** 2)))
        return {
            "energy_rmse": e_rmse,
            "force_rmse": f_rmse,
            "total_rmse": e_rmse + f_rmse,
        }

    # ------------------------------------------------------------------
    def state_dicts(self) -> list[dict]:
        """Per-member state (the hot-swap payload for ensemble serving)."""
        return [m.state_dict() for m in self.models]

    def _load_state(self, state: Sequence[dict]) -> None:
        if len(state) != len(self.models):
            raise ValueError(
                f"swap payload has {len(state)} member states for "
                f"{len(self.models)} models"
            )
        for model, member in zip(self.models, state):
            model.load_state_dict(member)
