"""Neighbor searching: pair lists for potentials, padded tables for DeePMD.

Two interchangeable pair-list backends serve the reference potentials:

* :func:`pair_list_bruteforce` -- O(N^2) minimum-image scan, the reference
  implementation for the paper-scale systems (32--108 atoms).
* :func:`pair_list_cells` -- linked-cell algorithm, O(N) for big boxes;
  validated against brute force in the tests and used automatically by
  :func:`pair_list` when the box is large enough to pay off.

The DeePMD descriptor consumes fixed-width ``(N, Nm)`` padded tables with
*constant* periodic shift vectors; keeping shifts constant is what makes
forces F = -dE/dr exact through the autograd graph (the round() in
minimum imaging is piecewise constant).  One kernel builds them,
:func:`batch_neighbor_tables`: the stacked ``(B, N, Nm)`` tables of many
frames (:class:`NeighborArrays`) in one vectorized pass.
:func:`neighbor_table` is its one-frame view (:class:`NeighborTable`).

Every table equals the one the half pair list defines, byte for byte: a
row lists atom i's neighbors by distance, equal distances as j > i
ascending and then j < i ascending (the half list's i-side, then its
j-side, under a stable sort), each with the shift ``rij - (r_j - r_i)``,
where ``rij`` is the half list's displacement (negated for j < i).
Wherever :func:`pair_list` brute-forces, the kernel reproduces that
densely over (frame, atom, other atom), :data:`DENSE_PAIRS_MAX` slots at
a time:

* row i lays out its candidates as ``j = (i + 1 + k) mod N``, so a stable
  sort keeps the tie order above;
* the sort key is the distance ``sqrt(r2)``, not ``r2`` (sqrt can merge
  distinct ``r2`` values), with ``r2`` summed as ``(dx² + dy²) + dz²``;
* minimum imaging is antisymmetric bit for bit except at an exact zero,
  which the half list's negation turns into ``-0.0`` for j < i -- the
  kernel does the same.

Big boxes keep the per-frame cell pair list and scatter it into the table
by each pair's rank within its atom's distance-sorted run.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cell import Cell


@dataclass
class PairList:
    """Half pair list: each i<j pair within the cutoff appears once.

    ``rij`` holds the minimum-image displacement r_j - r_i, ``r`` its norm.
    """

    i: np.ndarray
    j: np.ndarray
    rij: np.ndarray
    r: np.ndarray

    def __len__(self) -> int:
        return len(self.i)


@functools.lru_cache(maxsize=32)
def _triu_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, 1)``, built once per atom count (every MD step
    of a labeling run asks for the same one) and read-only, as it is
    shared."""
    iu, ju = np.triu_indices(n, k=1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def pair_list_bruteforce(positions: np.ndarray, cell: Cell, rcut: float) -> PairList:
    """All-pairs minimum-image search; exact for rcut <= min(L)/2."""
    n = positions.shape[0]
    dr = positions[None, :, :] - positions[:, None, :]
    dr = cell.minimum_image(dr)
    r2 = np.sum(dr * dr, axis=-1)
    iu, ju = _triu_pairs(n)
    mask = r2[iu, ju] < rcut * rcut
    i, j = iu[mask], ju[mask]
    rij = dr[i, j]
    return PairList(i=i, j=j, rij=rij, r=np.sqrt(r2[i, j]))


def pair_list_cells(positions: np.ndarray, cell: Cell, rcut: float) -> PairList:
    """Linked-cell pair search.

    The box is divided into bins of edge >= rcut; only the 27-neighborhood
    of each bin is scanned.  Falls back to brute force when fewer than 3
    bins fit along any axis (the neighborhood would cover the whole box).
    """
    lengths = cell.lengths
    nbins = np.maximum(np.floor(lengths / rcut).astype(int), 1)
    if np.any(nbins < 3):
        return pair_list_bruteforce(positions, cell, rcut)

    wrapped = cell.wrap(positions)
    bin_of = np.minimum((wrapped / (lengths / nbins)).astype(int), nbins - 1)
    flat = (bin_of[:, 0] * nbins[1] + bin_of[:, 1]) * nbins[2] + bin_of[:, 2]
    order = np.argsort(flat, kind="stable")
    sorted_flat = flat[order]
    # start offsets of each bin in `order`
    nbins_total = int(np.prod(nbins))
    starts = np.searchsorted(sorted_flat, np.arange(nbins_total + 1))

    offsets = np.array(
        [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)]
    )
    i_out, j_out = [], []
    for bx in range(nbins[0]):
        for by in range(nbins[1]):
            for bz in range(nbins[2]):
                b = (bx * nbins[1] + by) * nbins[2] + bz
                atoms_b = order[starts[b] : starts[b + 1]]
                if atoms_b.size == 0:
                    continue
                for dx, dy, dz in offsets:
                    nb = (
                        ((bx + dx) % nbins[0]) * nbins[1] + ((by + dy) % nbins[1])
                    ) * nbins[2] + ((bz + dz) % nbins[2])
                    if nb < b:
                        continue  # each bin pair handled once
                    atoms_n = order[starts[nb] : starts[nb + 1]]
                    if atoms_n.size == 0:
                        continue
                    if nb == b:
                        ii, jj = np.triu_indices(atoms_b.size, k=1)
                        i_out.append(atoms_b[ii])
                        j_out.append(atoms_b[jj])
                    else:
                        ii, jj = np.meshgrid(atoms_b, atoms_n, indexing="ij")
                        i_out.append(ii.ravel())
                        j_out.append(jj.ravel())
    if not i_out:
        empty = np.zeros(0, dtype=np.int64)
        return PairList(empty, empty, np.zeros((0, 3)), np.zeros(0))
    i = np.concatenate(i_out)
    j = np.concatenate(j_out)
    dr = cell.minimum_image(positions[j] - positions[i])
    r2 = np.sum(dr * dr, axis=-1)
    keep = r2 < rcut * rcut
    i, j, dr = i[keep], j[keep], dr[keep]
    # canonical ordering (i < j) so backends agree exactly
    swap = i > j
    i2 = np.where(swap, j, i)
    j2 = np.where(swap, i, j)
    dr = np.where(swap[:, None], -dr, dr)
    key = np.lexsort((j2, i2))
    return PairList(i=i2[key], j=j2[key], rij=dr[key], r=np.sqrt(r2[keep][key]))


def _uses_cell_list(n_atoms: int, cell: Cell, rcut: float) -> bool:
    """The cell list pays off for more than 256 atoms in a box at least
    three cutoffs wide along every axis; below that, brute force."""
    return n_atoms > 256 and bool(np.all(cell.lengths / rcut >= 3.0))


def pair_list(positions: np.ndarray, cell: Cell, rcut: float) -> PairList:
    """Pick the cell-list backend when it can win, else brute force."""
    if _uses_cell_list(positions.shape[0], cell, rcut):
        return pair_list_cells(positions, cell, rcut)
    return pair_list_bruteforce(positions, cell, rcut)


#: Most candidate (frame, atom, other atom) slots one dense pass holds.
#: At its peak the pass keeps 130--190 bytes of temporaries per slot (the
#: displacements, their images, r2, the sort key and its argsort), so
#: 2^14 slots bound a chunk at ~3 MB: 16 frames of 32 atoms, or one frame
#: of 108 (a frame is never split; one of 256 atoms peaks at ~8 MB).  Per
#: frame the pass is as fast at 2^12 as at 2^14 slots and slower above,
#: where a chunk outgrows the caches, and a dataset-wide
#: :meth:`~repro.data.Dataset.ensure_neighbors` holds the tables it
#: returns plus one chunk.
DENSE_PAIRS_MAX = 1 << 14


@dataclass
class NeighborTable:
    """Fixed-width padded neighbor table for the DeePMD descriptor.

    ``idx[i, k]`` is the k-th neighbor of atom i (self-index when padded),
    ``shift[i, k]`` the constant lattice translation such that
    ``r_neighbor = positions[idx] + shift - positions[i]`` reproduces the
    minimum-image displacement, and ``mask[i, k]`` marks real neighbors.
    Neighbors are sorted by distance (DeePMD convention), truncated or
    padded to ``nmax``.
    """

    idx: np.ndarray
    shift: np.ndarray
    mask: np.ndarray

    @property
    def nmax(self) -> int:
        return self.idx.shape[1]


@dataclass
class NeighborArrays:
    """Stacked neighbor tables of B frames: idx (B,N,Nm) int,
    shift (B,N,Nm,3), mask (B,N,Nm) bool, built at cutoff ``rcut``;
    frame ``t`` is the :class:`NeighborTable` ``frame(t)``."""

    idx: np.ndarray
    shift: np.ndarray
    mask: np.ndarray
    rcut: float

    @property
    def nmax(self) -> int:
        return self.idx.shape[2]

    def frame(self, t: int) -> NeighborTable:
        """Frame ``t``'s table, copied out of the stack (a cached copy
        does not pin the whole stack in memory)."""
        return NeighborTable(
            idx=self.idx[t].copy(), shift=self.shift[t].copy(), mask=self.mask[t].copy()
        )

    def take(self, indices) -> "NeighborArrays":
        """The stack restricted (and reordered) to frames ``indices``."""
        return NeighborArrays(
            idx=self.idx[indices],
            shift=self.shift[indices],
            mask=self.mask[indices],
            rcut=self.rcut,
        )

    @classmethod
    def stack(cls, tables: Sequence[NeighborTable], rcut: float) -> "NeighborArrays":
        """Stack per-frame tables (all built at ``rcut``) into one."""
        return cls(
            idx=np.stack([t.idx for t in tables]),
            shift=np.stack([t.shift for t in tables]),
            mask=np.stack([t.mask for t in tables]),
            rcut=float(rcut),
        )


def _dense_tables(
    pos: np.ndarray, cell: Cell, rcut: float, nmax: int,
    idx: np.ndarray, shift: np.ndarray, mask: np.ndarray,
) -> None:
    """Fill the tables of frames ``pos`` (B, N, 3) by an all-pairs scan."""
    b, n = pos.shape[:2]
    m = min(nmax, n - 1)
    if m <= 0:
        return
    p = pos.transpose(2, 0, 1)  # (3, B, N): coordinate-major
    # row i's candidates j = i+1, ..., N-1, 0, ..., i-1: columns 1..N-1 of
    # the coordinates written N+1 times and folded into rows of N+1; the
    # stable sort below then orders equal distances the way the half
    # list did
    rows = np.concatenate([p] * (n + 1), axis=-1).reshape(3, b, n, n + 1)
    raw = rows[..., 1:n] - p[..., None]  # (3, B, N, N-1): r_j - r_i
    d = cell.minimum_image(raw.T).T
    r2 = (d[0] * d[0] + d[1] * d[1]) + d[2] * d[2]
    within = r2 < rcut * rcut
    # sort on the distance itself: sqrt can merge distinct r2 values
    key = np.where(within, np.sqrt(r2), np.inf)
    col = np.argsort(key, axis=-1, kind="stable")[..., :m]  # (B, N, m)
    atom = np.arange(n)[:, None]
    flat = col + np.arange(0, b * n * (n - 1), n - 1).reshape(b, n, 1)
    delta = raw.reshape(3, -1).take(flat, axis=1)
    vec = d.reshape(3, -1).take(flat, axis=1)
    # the half list negated the imaged r_i - r_j for j < i, which equals
    # the imaged r_j - r_i except that an exact zero comes out as -0.0
    zero = vec == 0.0
    zero &= col >= n - 1 - atom
    if zero.any():
        vec[zero] = -0.0
    keep = np.arange(m) < within.sum(axis=-1)[..., None]
    # shift = rij_min_image - (r_j - r_i) so that pos[j] + shift - pos[i] = rij
    idx[:, :, :m] = np.where(keep, (atom + 1 + col) % n, atom)
    shift[:, :, :m] = np.where(keep[..., None], (vec - delta).transpose(1, 2, 3, 0), 0.0)
    mask[:, :, :m] = keep


def _cell_list_table(
    positions: np.ndarray, cell: Cell, rcut: float, nmax: int,
    idx: np.ndarray, shift: np.ndarray, mask: np.ndarray,
) -> None:
    """Fill one frame's table from its cell pair list (big boxes)."""
    pl = pair_list_cells(positions, cell, rcut)
    # expand half list to full list
    src = np.concatenate([pl.i, pl.j])
    dst = np.concatenate([pl.j, pl.i])
    vec = np.concatenate([pl.rij, -pl.rij])
    dist = np.concatenate([pl.r, pl.r])
    order = np.lexsort((dist, src))
    src, dst, vec = src[order], dst[order], vec[order]
    # rank of each pair within its source atom's distance-sorted run
    starts = np.searchsorted(src, np.arange(positions.shape[0]))
    rank = np.arange(src.size) - starts[src]
    keep = rank < nmax
    src, dst, vec, rank = src[keep], dst[keep], vec[keep], rank[keep]
    idx[src, rank] = dst
    shift[src, rank] = vec - (positions[dst] - positions[src])
    mask[src, rank] = True


def batch_neighbor_tables(
    positions: np.ndarray, cell: Cell, rcut: float, nmax: int
) -> NeighborArrays:
    """Padded neighbor tables of every frame in ``positions`` (B, N, 3).

    Byte-identical, frame by frame, to building each table on its own
    (:func:`neighbor_table` is this kernel on one frame); see the module
    docstring for how the dense pass keeps the tie order.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 3 or positions.shape[-1] != 3:
        raise ValueError(f"positions must be (B, N, 3), got {positions.shape}")
    b, n = positions.shape[:2]
    idx = np.empty((b, n, nmax), dtype=np.int64)
    idx[...] = np.arange(n)[:, None]
    shift = np.zeros((b, n, nmax, 3))
    mask = np.zeros((b, n, nmax), dtype=bool)
    if _uses_cell_list(n, cell, rcut):
        for t in range(b):
            _cell_list_table(positions[t], cell, rcut, nmax, idx[t], shift[t], mask[t])
    else:
        step = max(1, DENSE_PAIRS_MAX // max(1, n * (n - 1)))
        for lo in range(0, b, step):
            hi = min(lo + step, b)
            _dense_tables(
                positions[lo:hi], cell, rcut, nmax, idx[lo:hi], shift[lo:hi], mask[lo:hi]
            )
    return NeighborArrays(idx=idx, shift=shift, mask=mask, rcut=float(rcut))


def neighbor_table(
    positions: np.ndarray, cell: Cell, rcut: float, nmax: int
) -> NeighborTable:
    """One frame's padded table: :func:`batch_neighbor_tables` on (N, 3)."""
    nb = batch_neighbor_tables(np.asarray(positions)[None], cell, rcut, nmax)
    return NeighborTable(idx=nb.idx[0], shift=nb.shift[0], mask=nb.mask[0])


def max_neighbor_count(positions: np.ndarray, cell: Cell, rcut: float) -> int:
    """Largest per-atom neighbor count (used to size Nm for a dataset)."""
    pl = pair_list(positions, cell, rcut)
    counts = np.bincount(
        np.concatenate([pl.i, pl.j]), minlength=positions.shape[0]
    )
    return int(counts.max()) if counts.size else 0
