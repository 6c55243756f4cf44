"""The unified prediction surface: ``InferenceSession`` + ``Prediction``.

Before this module the repo had three ad-hoc ways to get an energy/force
prediction out of a trained model -- :class:`DeePMDCalculator` for MD,
:meth:`ModelEnsemble.predict` for uncertainty, and hand-rolled
``neighbor_table``/``DescriptorBatch`` plumbing inside the active-learning
loop.  Every consumer now goes through one protocol::

    pred = session.predict(positions, species, cell)   # -> Prediction

implemented by :class:`ModelSession` (one model),
:class:`~repro.model.ensemble.ModelEnsemble` (committee + uncertainty),
:class:`~repro.model.calculator.DeePMDCalculator` (the MD adapter), and
:class:`repro.serve.InferenceService` (the batched server).  A
``Prediction`` carries the monotonic ``model_version`` of the weights
that produced it, which is what makes hot model swap observable.

The frame -> :class:`DescriptorBatch` assembly lives here
(:func:`frames_to_batch`), so descriptor plumbing stays inside
``repro.model`` -- a boundary enforced by the test suite.
"""

from __future__ import annotations

import abc
import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..md.cell import Cell
from ..md.neighbor import NeighborArrays, NeighborTable, batch_neighbor_tables
from .config import DeePMDConfig
from .environment import DescriptorBatch
from .network import DeePMD

__all__ = [
    "Prediction",
    "InferenceSession",
    "ModelSession",
    "frames_to_batch",
    "frame_fingerprint",
]


@dataclass
class Prediction:
    """One frame's prediction from any :class:`InferenceSession`.

    ``model_version`` identifies the weights that produced it (monotonic
    under hot swap; 0 for a session that never swaps).  The uncertainty
    fields are ``None`` unless the session is ensemble-backed.

    ``forces`` is a read-only view: a served prediction may be cached and
    handed to every later caller of the same frame, so no caller may
    write into it (copy first).
    """

    energy: float
    forces: np.ndarray  # (N, 3)
    model_version: int = 0
    energy_std: Optional[float] = None
    #: DP-GEN's selection signal: max over atoms of the force deviation
    max_force_dev: Optional[float] = None
    #: served from a prediction cache (no forward pass ran for it)
    cached: bool = False

    def __post_init__(self):
        self.forces = np.asarray(self.forces).view()
        self.forces.flags.writeable = False


class InferenceSession(abc.ABC):
    """The one prediction API every in-tree consumer goes through.

    Implementations provide :meth:`predict_descriptor_batch` (the raw
    batched forward over an already-assembled :class:`DescriptorBatch`);
    the frame-level entry points are derived from it so single-frame and
    batched calls are bit-identical per frame.
    """

    #: bumped by :meth:`swap`; every Prediction reports the value that
    #: produced it
    _model_version: int = 0

    @property
    def model_version(self) -> int:
        return self._model_version

    @property
    @abc.abstractmethod
    def cfg(self) -> DeePMDConfig:
        """Descriptor configuration (fixes rcut/nmax for neighbor tables)."""

    @abc.abstractmethod
    def predict_descriptor_batch(self, batch: DescriptorBatch) -> dict:
        """Batched raw forward: ``{"energy": (B,), "forces": (B, N, 3)}``
        plus optional ``"energy_std"`` / ``"max_force_dev"`` arrays."""

    # ------------------------------------------------------------------
    def predict(
        self, positions: np.ndarray, species: np.ndarray, cell: Cell
    ) -> Prediction:
        """Energy/forces (+ uncertainty, when available) for one frame."""
        return self.predict_many(np.asarray(positions)[None], species, cell)[0]

    def predict_many(
        self, frames: np.ndarray, species: np.ndarray, cell: Cell
    ) -> list[Prediction]:
        """Predictions for ``frames`` (B, N, 3), one batched forward."""
        batch = frames_to_batch(frames, species, cell, self.cfg)
        out = self.predict_descriptor_batch(batch)
        return self._wrap(out)

    def _wrap(self, out: dict) -> list[Prediction]:
        version = self.model_version
        e_std = out.get("energy_std")
        dev = out.get("max_force_dev")
        return [
            Prediction(
                energy=float(out["energy"][t]),
                forces=out["forces"][t],
                model_version=version,
                energy_std=None if e_std is None else float(e_std[t]),
                max_force_dev=None if dev is None else float(dev[t]),
            )
            for t in range(len(out["energy"]))
        ]

    # ------------------------------------------------------------------
    def swap(self, state) -> int:
        """Replace the underlying weights; returns the new (monotonic)
        ``model_version``.  Implementations override :meth:`_load_state`."""
        self._load_state(state)
        self._model_version += 1
        return self._model_version

    def restore_version(self, version: int) -> int:
        """Fast-forward ``model_version`` when resuming from a checkpoint.

        A resumed online-learning session must serve under the version
        it crashed at -- version-keyed prediction caches and ledgers
        would otherwise alias a fresh session's version 1 with the old
        one.  Only forward moves are allowed (the counter stays
        monotonic).
        """
        version = int(version)
        if version < self._model_version:
            raise ValueError(
                f"cannot rewind model_version {self._model_version} -> {version}"
            )
        self._model_version = version
        return self._model_version

    def _load_state(self, state) -> None:
        raise NotImplementedError(f"{type(self).__name__} does not support swap")


class ModelSession(InferenceSession):
    """A single :class:`DeePMD` model behind the session protocol."""

    def __init__(self, model: DeePMD, fused_env: bool = True):
        self.model = model
        self.fused_env = bool(fused_env)

    @property
    def cfg(self) -> DeePMDConfig:
        return self.model.cfg

    def predict_descriptor_batch(self, batch: DescriptorBatch) -> dict:
        out = self.model.predict(batch, fused_env=self.fused_env)
        return {"energy": out.energy, "forces": out.forces}

    def _load_state(self, state: dict) -> None:
        self.model.load_state_dict(state)


# ---------------------------------------------------------------------------
# frame -> DescriptorBatch assembly (the one place it happens)
# ---------------------------------------------------------------------------
def frames_to_batch(
    frames: np.ndarray,
    species: np.ndarray,
    cell: Cell,
    cfg: DeePMDConfig,
    tables: Optional[Sequence[NeighborTable]] = None,
) -> DescriptorBatch:
    """Assemble a self-contained :class:`DescriptorBatch` for raw frames.

    ``tables`` optionally supplies one precomputed neighbor table per
    frame (built at ``cfg.rcut``/``cfg.nmax``); the serve layer uses this
    to reuse cached tables.  Otherwise every frame's table comes from one
    :func:`~repro.md.neighbor.batch_neighbor_tables` call.  Label fields
    stay ``None`` -- this is the inference path.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 3 or frames.shape[-1] != 3:
        raise ValueError(f"frames must be (B, N, 3), got {frames.shape}")
    b, n = frames.shape[:2]
    if tables is None:
        nb = batch_neighbor_tables(frames, cell, cfg.rcut, cfg.nmax)
    elif len(tables) != b:
        raise ValueError(f"{len(tables)} neighbor tables for {b} frames")
    else:
        nb = NeighborArrays.stack(tables, cfg.rcut)
    frame_offset = (np.arange(b) * n)[:, None, None]
    return DescriptorBatch(
        coords=frames,
        idx_flat=nb.idx + frame_offset,
        shift=nb.shift,
        mask=nb.mask,
        species=np.asarray(species, dtype=np.int64),
    )


def frame_fingerprint(
    positions: np.ndarray, cell: Cell, rcut: float, nmax: int
) -> str:
    """Content hash of everything a neighbor table depends on.

    Two requests with bit-identical positions in the same cell at the
    same cutoff share one fingerprint -- the cache key of the serve
    layer's neighbor/descriptor and prediction caches.
    """
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(positions, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(cell.lengths, dtype=np.float64).tobytes())
    h.update(np.float64(rcut).tobytes())
    h.update(np.int64(nmax).tobytes())
    return h.hexdigest()
