"""Use a trained DeePMD model as an MD force field (NNMD inference).

This closes the paper's loop: train a model in minutes, then drive
molecular dynamics with it (Figure 1's workflow).  The calculator
implements the :class:`repro.md.potentials.Potential` interface, so it
plugs directly into :class:`repro.md.LangevinIntegrator`, and the
:class:`repro.model.session.InferenceSession` protocol, so it is also a
first-class prediction surface (the species argument of ``predict`` is
checked against the pinned system).
"""

from __future__ import annotations

import numpy as np

from ..md.cell import Cell
from ..md.potentials import Potential
from .environment import DescriptorBatch
from .network import DeePMD
from .session import InferenceSession, ModelSession


class DeePMDCalculator(Potential, InferenceSession):
    """Energy/force provider backed by a trained :class:`DeePMD` model.

    Parameters
    ----------
    model:
        Trained network (its config fixes the cutoff and Nm).
    species:
        Per-atom species indices of the system being simulated.

    Predictions run the model's graph-free Opt1 kernels
    (:meth:`DeePMD.predict`).
    """

    def __init__(self, model: DeePMD, species: np.ndarray):
        self.model = model
        self.species = np.asarray(species, dtype=np.int64)
        self._session = ModelSession(model)

    # -- InferenceSession ----------------------------------------------
    @property
    def cfg(self):
        return self.model.cfg

    @property
    def model_version(self) -> int:
        return self._session.model_version

    def predict_descriptor_batch(self, batch: DescriptorBatch) -> dict:
        return self._session.predict_descriptor_batch(batch)

    def predict_many(self, frames, species, cell):
        species = np.asarray(species, dtype=np.int64)
        if species.shape != self.species.shape or np.any(species != self.species):
            raise ValueError("species differ from the calculator's pinned system")
        return self._session.predict_many(frames, species, cell)

    def swap(self, state) -> int:
        return self._session.swap(state)

    # -- Potential -----------------------------------------------------
    def energy_forces(self, positions: np.ndarray, cell: Cell) -> tuple[float, np.ndarray]:
        pred = self._session.predict(positions, self.species, cell)
        return pred.energy, pred.forces
