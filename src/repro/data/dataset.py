"""Labeled snapshot datasets.

A :class:`Dataset` is the training-ready form of a sampled trajectory:
stacked positions/energies/forces plus the static system description, with
lazily-built (and cached) padded neighbor tables, which are *fixed* during
training because the configurations are fixed -- precomputing them once is
one of the big CPU-side wins for the training loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..md.cell import Cell
from ..md.neighbor import NeighborArrays, batch_neighbor_tables
from ..md.sampler import Trajectory


@dataclass
class Dataset:
    """Frames of one physical system with energy/force labels."""

    name: str
    positions: np.ndarray  # (F, N, 3)
    energies: np.ndarray  # (F,)
    forces: np.ndarray  # (F, N, 3)
    species: np.ndarray  # (N,) int
    cell: Cell
    temperatures: np.ndarray = field(default=None)  # (F,) metadata
    _neighbors: Optional[NeighborArrays] = field(default=None, repr=False)

    def __post_init__(self):
        f, n, _ = self.positions.shape
        if self.energies.shape != (f,):
            raise ValueError("energies shape mismatch")
        if self.forces.shape != (f, n, 3):
            raise ValueError("forces shape mismatch")
        if self.species.shape != (n,):
            raise ValueError("species shape mismatch")
        if self.temperatures is None:
            self.temperatures = np.zeros(f)

    # ------------------------------------------------------------------
    @property
    def n_frames(self) -> int:
        return self.positions.shape[0]

    @property
    def n_atoms(self) -> int:
        return self.positions.shape[1]

    @property
    def n_species(self) -> int:
        return int(self.species.max()) + 1 if self.species.size else 0

    def __len__(self) -> int:
        return self.n_frames

    # ------------------------------------------------------------------
    @classmethod
    def from_trajectory(cls, name: str, traj: Trajectory) -> "Dataset":
        return cls(
            name=name,
            positions=traj.positions_array(),
            energies=traj.energies_array(),
            forces=traj.forces_array(),
            species=traj.species,
            cell=traj.cell,
            temperatures=np.array([f.temperature for f in traj.frames]),
        )

    def get_frames(self, indices) -> "Frames":
        """Materialize the requested frames (:class:`FrameSource` read
        path).  Fancy indexing copies, so callers never hold views into
        the dataset's arrays."""
        from .source import Frames  # deferred: source imports this module

        indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        return Frames(
            positions=self.positions[indices],
            forces=self.forces[indices],
            energies=self.energies[indices],
            temperatures=self.temperatures[indices],
        )

    def neighbor_tables(self, indices, rcut: float, nmax: int) -> NeighborArrays:
        """Padded neighbor tables for the requested frames, sliced from
        the dataset-wide cache (:class:`FrameSource` read path)."""
        indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        return self.ensure_neighbors(rcut, nmax).take(indices)

    @property
    def cached_neighbors(self) -> Optional[NeighborArrays]:
        """The neighbor tables built so far (``None`` before the first
        :meth:`ensure_neighbors`).  Public accessor so serialization does
        not need to reach into the private cache field."""
        return self._neighbors

    @cached_neighbors.setter
    def cached_neighbors(self, nb: Optional[NeighborArrays]) -> None:
        self._neighbors = nb

    def fingerprint(self) -> str:
        """Content identity: sha256 over the label arrays and geometry.
        Two datasets with equal frames fingerprint equal regardless of
        how they were constructed or stored."""
        import hashlib

        h = hashlib.sha256()
        h.update(self.species.astype(np.int64).tobytes())
        h.update(np.asarray(self.cell.lengths, dtype=np.float64).tobytes())
        for arr in (self.positions, self.forces, self.energies, self.temperatures):
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        return h.hexdigest()

    def subset(self, indices: np.ndarray) -> "Dataset":
        indices = np.asarray(indices)
        sub = Dataset(
            name=self.name,
            positions=self.positions[indices],
            energies=self.energies[indices],
            forces=self.forces[indices],
            species=self.species,
            cell=self.cell,
            temperatures=self.temperatures[indices],
        )
        if self._neighbors is not None:
            sub._neighbors = self._neighbors.take(indices)
        return sub

    def split(self, train_fraction: float = 0.8, seed: int = 0) -> tuple["Dataset", "Dataset"]:
        """Random train/test split (frame-level)."""
        rng = np.random.default_rng(seed)
        perm = rng.permutation(self.n_frames)
        k = int(round(train_fraction * self.n_frames))
        return self.subset(perm[:k]), self.subset(perm[k:])

    # ------------------------------------------------------------------
    def ensure_neighbors(self, rcut: float, nmax: int) -> NeighborArrays:
        """Build (or return cached) stacked neighbor tables at ``rcut``."""
        nb = self._neighbors
        if nb is not None and nb.rcut == rcut and nb.nmax == nmax:
            return nb
        self._neighbors = batch_neighbor_tables(self.positions, self.cell, rcut, nmax)
        return self._neighbors

    # ------------------------------------------------------------------
    def energy_per_atom_stats(self) -> tuple[float, float]:
        """(mean, std) of energy per atom; used to initialize the fitting
        net bias and to normalize RMSE reporting."""
        e = self.energies / self.n_atoms
        return float(e.mean()), float(e.std())
