"""The ``FrameSource`` protocol: one data API over memory and disk.

Everything downstream of the data layer -- batch construction, loss
evaluation, training, the online label pool -- used to take a concrete
in-memory :class:`~repro.data.dataset.Dataset`.  That ties corpus size
to RAM.  This module defines the small protocol both backends speak:

==================  ==================================================
``n_frames``        total labeled frames
``n_atoms``         atoms per frame (one physical system per source)
``species``         (N,) int species codes
``cell``            the periodic :class:`~repro.md.cell.Cell`
``n_species``       distinct species count (max code + 1)
``get_frames(idx)`` materialize frames as a :class:`Frames` block
``neighbor_tables(idx, rcut, nmax)``
                    padded neighbor tables for those frames
``energy_per_atom_stats()``
                    (mean, std) energy per atom over the corpus
``fingerprint()``   content-identity hash
==================  ==================================================

:class:`~repro.data.dataset.Dataset` (RAM) and :class:`~repro.data.
framestore.ShardedFrameStore` (disk, mmap) both implement it; the two
are interchangeable and bit-identical to train from.  Use
:func:`open_source` to turn "whatever the user handed us" -- a dataset,
a store, an ``.npz`` path, or a store directory -- into a source, and
:func:`~repro.data.loader.make_loader` to iterate it.

:func:`windowed_order` is the shared shuffle kernel: a pure function of
``(n_frames, window, seed, epoch)``, so an out-of-core loader reading
through a windowed shuffle and an in-memory loader configured the same
way visit frames in the *same* order -- that is what keeps store-backed
training bit-identical to the in-memory path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Protocol, runtime_checkable

import numpy as np

from ..md.cell import Cell
from ..md.neighbor import NeighborArrays
from .dataset import Dataset

__all__ = ["Frames", "FrameSource", "windowed_order", "open_source"]


@dataclass
class Frames:
    """A materialized block of labeled frames (always fresh arrays --
    never views into a source's backing storage)."""

    positions: np.ndarray  # (F, N, 3)
    forces: np.ndarray  # (F, N, 3)
    energies: np.ndarray  # (F,)
    temperatures: np.ndarray  # (F,)

    @property
    def n_frames(self) -> int:
        return self.positions.shape[0]

    def __len__(self) -> int:
        return self.n_frames


@runtime_checkable
class FrameSource(Protocol):
    """Structural type of anything batches can be built from."""

    species: np.ndarray
    cell: Cell

    @property
    def n_frames(self) -> int: ...

    @property
    def n_atoms(self) -> int: ...

    @property
    def n_species(self) -> int: ...

    def get_frames(self, indices) -> Frames: ...

    def neighbor_tables(
        self, indices, rcut: float, nmax: int
    ) -> NeighborArrays: ...

    def energy_per_atom_stats(self) -> tuple[float, float]: ...

    def fingerprint(self) -> str: ...


def windowed_order(
    n_frames: int,
    window: Optional[int],
    seed: int,
    epoch: int,
) -> np.ndarray:
    """Deterministic (seeded-PCG64) epoch visit order over ``n_frames``.

    ``window=None`` is a global permutation -- exactly the historical
    ``BatchLoader`` shuffle (same generator seeding, same stream), so
    existing runs replay bit-identically.  With a ``window`` the frames
    are split into contiguous windows (the out-of-core case aligns these
    with shard pools), the *window order* is permuted, then each
    window's frames are permuted locally: any moment of iteration only
    has one window's worth of locality, so an LRU shard cache of a few
    shards serves a whole epoch without thrashing.

    Pure function of its arguments: both loader backends call this, so
    equal parameters mean equal order regardless of where frames live.
    """
    rng = np.random.default_rng(seed + 7919 * epoch)
    if window is None or window >= n_frames:
        return rng.permutation(n_frames)
    if window < 1:
        raise ValueError("window must be >= 1")
    n_windows = (n_frames + window - 1) // window
    order = np.empty(n_frames, dtype=np.int64)
    lo = 0
    for w in rng.permutation(n_windows):
        start = int(w) * window
        members = np.arange(start, min(start + window, n_frames))
        order[lo : lo + members.size] = members[rng.permutation(members.size)]
        lo += members.size
    return order


def open_source(path_or_dataset, **kwargs) -> FrameSource:
    """One construction surface for every data backend.

    * a :class:`FrameSource` (``Dataset``, ``ShardedFrameStore``, ...)
      passes through unchanged;
    * a directory holding a ``repro.framestore/v1`` manifest opens as a
      read-only :class:`~repro.data.framestore.ShardedFrameStore`
      (``kwargs`` forward: ``mode``, ``max_open_shards``, ``recover``,
      ``validate``);
    * an ``.npz`` path loads as an in-memory ``Dataset``.

    Mirrors ``make_optimizer``: call sites name *what* they want, the
    registry decides *which class* that is.
    """
    if isinstance(path_or_dataset, (str, os.PathLike)):
        from .framestore import _MANIFEST, ShardedFrameStore

        path = os.fspath(path_or_dataset)
        if os.path.isdir(path):
            if os.path.exists(os.path.join(path, _MANIFEST)):
                kwargs.setdefault("mode", "r")
                return ShardedFrameStore.open(path, **kwargs)
            raise FileNotFoundError(f"no frame store manifest in {path}")
        if path.endswith(".npz"):
            from .store import read_npz

            return read_npz(path, **kwargs)
        raise ValueError(
            f"cannot open {path!r}: expected a frame-store directory or "
            "an .npz dataset file"
        )
    if isinstance(path_or_dataset, FrameSource):
        if kwargs:
            raise TypeError(
                "keyword options only apply when opening from a path"
            )
        return path_or_dataset
    raise TypeError(
        f"cannot make a FrameSource from {type(path_or_dataset).__name__}"
    )
