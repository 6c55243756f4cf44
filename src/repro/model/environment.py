"""Environment matrix construction (the descriptor input R~).

For each atom i the smoothed neighbor matrix R~_i has one row per neighbor
slot: ``s(r) * (1, x/r, y/r, z/r)`` (paper Sec. 2.1 step 1).  Rows are
normalized with dataset statistics (davg/dstd) and padded slots are zeroed
*after* normalization so they contribute exactly nothing downstream.

Two implementations, validated against each other in the tests:

* :func:`environment_graph` -- composed from autograd primitives; forces
  come out of plain backward.  This is the "Autograd API" baseline of the
  paper's Figure 7.
* :func:`environment_fused` -- a single hand-derived kernel (the paper's
  Opt1 "customized kernel of the symmetry-preserving descriptor").  Its
  backward (d/dcoords given dE/dR~n) and the transpose of that linear map
  (needed when force predictions are differentiated w.r.t. the weights in
  EKF updates) are both written out analytically, so double backward along
  the weight direction stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..autograd import Tensor, make_op, ops
from ..autograd.instrument import register_op
from ..data.source import FrameSource
from .config import DeePMDConfig
from .smooth import smooth_graph, smooth_np

# the hand-derived Opt1 descriptor kernels: the vjp and its adjoint are
# mutually-transposed linear maps, so derivatives of any order along the
# weight direction are exact (see _env_vjp_op)
for _name in ("env_fused", "env_bwd_fused", "env_bwd_transpose_fused"):
    register_op(_name, kind="fused")
del _name


@dataclass
class DescriptorBatch:
    """Batched, training-ready inputs for ``B`` frames of one system.

    ``idx_flat`` indexes into the (B*N, 3) flattened coordinate array so a
    single gather fetches every neighbor; ``shift`` holds the constant
    periodic translations; ``mask`` marks real neighbor slots.
    """

    coords: np.ndarray  # (B, N, 3)
    idx_flat: np.ndarray  # (B, N, Nm) int64 into flattened (B*N)
    shift: np.ndarray  # (B, N, Nm, 3)
    mask: np.ndarray  # (B, N, Nm) bool
    species: np.ndarray  # (N,)
    energies: Optional[np.ndarray] = None  # (B,)
    forces: Optional[np.ndarray] = None  # (B, N, 3)

    @property
    def batch_size(self) -> int:
        return self.coords.shape[0]

    @property
    def n_atoms(self) -> int:
        return self.coords.shape[1]

    @property
    def nmax(self) -> int:
        return self.idx_flat.shape[2]

    def frame_slice(self, lo: int, hi: int) -> "DescriptorBatch":
        """A view of frames [lo, hi) with neighbor indices rebased so the
        sub-batch is self-contained (used for per-rank shards and the
        per-sample Naive-EKF loop)."""
        sel = slice(lo, hi)
        return DescriptorBatch(
            coords=self.coords[sel],
            idx_flat=self.idx_flat[sel] - lo * self.n_atoms,
            shift=self.shift[sel],
            mask=self.mask[sel],
            species=self.species,
            energies=None if self.energies is None else self.energies[sel],
            forces=None if self.forces is None else self.forces[sel],
        )


def make_batch(
    source: FrameSource, indices: np.ndarray, cfg: DeePMDConfig
) -> DescriptorBatch:
    """Assemble a :class:`DescriptorBatch` for the given frame indices.

    ``source`` is any :class:`~repro.data.source.FrameSource` -- the
    in-memory dataset serves views of its cached tables, an out-of-core
    store reads exactly these frames; both produce bit-identical batches
    for equal frames (same neighbor kernel, same packing)."""
    indices = np.asarray(indices, dtype=np.int64)
    nb = source.neighbor_tables(indices, cfg.rcut, cfg.nmax)
    frames = source.get_frames(indices)
    b = len(indices)
    n = source.n_atoms
    frame_offset = (np.arange(b) * n)[:, None, None]
    return DescriptorBatch(
        coords=frames.positions,
        idx_flat=nb.idx + frame_offset,  # (B, N, Nm) within-frame -> flat
        shift=nb.shift,
        mask=nb.mask,
        species=source.species,
        energies=frames.energies,
        forces=frames.forces,
    )


@dataclass(frozen=True)
class EnvStats:
    """Per-column normalization of R~ (davg subtracted, dstd divided)."""

    davg: np.ndarray  # (4,)
    dstd: np.ndarray  # (4,)


def compute_stats(source: FrameSource, cfg: DeePMDConfig, max_frames: int = 32) -> EnvStats:
    """Source davg/dstd of the raw R~ columns over real neighbor slots.

    Follows the DeePMD convention: the three angular columns share the
    radial column's scale and are not shifted (their mean vanishes by
    symmetry), which keeps normalization rotation-equivariant.  Reads at
    most ``max_frames`` frames, so an out-of-core source never has to
    materialize its corpus.
    """
    take = np.linspace(0, source.n_frames - 1, min(max_frames, source.n_frames)).astype(int)
    batch = make_batch(source, take, cfg)
    env = _env_intermediates(batch.coords, batch, cfg)
    m = batch.mask
    s = env.s[m]
    # slot-major, component-minor: std()'s pairwise sums depend on the
    # element order, and the normalization constants must not move
    sv = np.ascontiguousarray((env.s * env.rhat)[:, m].T)
    davg0 = float(s.mean()) if s.size else 0.0
    std0 = float(s.std()) + 1e-8
    stdv = float(sv.std()) + 1e-8
    davg = np.array([davg0, 0.0, 0.0, 0.0])
    dstd = np.array([std0, stdv, stdv, stdv])
    return EnvStats(davg=davg, dstd=dstd)


def identity_stats() -> EnvStats:
    """No-op normalization (used by unit tests)."""
    return EnvStats(davg=np.zeros(4), dstd=np.ones(4))


# ---------------------------------------------------------------------------
# shared raw-numpy geometry
# ---------------------------------------------------------------------------
@dataclass
class EnvIntermediates:
    """Raw-numpy geometric quantities reused by the fused kernels, in
    structure-of-arrays form: one ``(B, N, Nm)`` plane per Cartesian
    component rather than a trailing axis of length 3."""

    rhat: np.ndarray  # (3, B, N, Nm), 0 on padded slots
    s: np.ndarray  # (B, N, Nm), 0 outside cutoff / padding
    ds: np.ndarray  # (B, N, Nm)
    s_over_r: np.ndarray  # (B, N, Nm), s / r with r := 1 on padded slots


def _planes(a: np.ndarray) -> np.ndarray:
    """(..., 3) -> (3, ...) view: the component planes of an AoS array."""
    return np.moveaxis(a, -1, 0)


def _dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Plane-wise 3-vector dot, bit-equal to ``np.sum(aos_a * aos_b,
    axis=-1)``: numpy reduces a length-3 axis as ``((0 + p0) + p1) + p2``,
    which equals ``((p0 + p1) + p2) + 0`` (the trailing ``+ 0`` only turns
    an all-``-0.0`` sum into ``+0.0``, as the identity-seeded reduce does)."""
    out = a[0] * b[0]
    out += a[1] * b[1]
    out += a[2] * b[2]
    out += 0.0
    return out


def _scatter_sum(idx: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """``zeros(size)`` with ``values`` added at ``idx`` in input order:
    bit-equal to ``np.add.at`` and to a strided ``sum`` over the slots."""
    return np.bincount(idx.reshape(-1), weights=values.reshape(-1), minlength=size)


def _env_intermediates(
    coords: np.ndarray, batch: DescriptorBatch, cfg: DeePMDConfig
) -> EnvIntermediates:
    b, n, _ = coords.shape
    mask = batch.mask
    c = _planes(coords).reshape(3, b * n)
    rij = np.take(c, batch.idx_flat, axis=1)  # neighbor positions
    rij += _planes(batch.shift)
    rij -= c.reshape(3, b, n)[..., None]
    sq = rij * rij
    r = sq[0] + sq[1]
    r += sq[2]
    r = np.where(mask, np.sqrt(r, out=r), 0.0)  # == linalg.norm: squares are >= +0
    r_safe = np.where(r > 0, r, 1.0)
    rij /= r_safe
    s, ds = smooth_np(r, cfg.rcut_smooth, cfg.rcut)
    s = np.where(mask, s, 0.0)
    return EnvIntermediates(
        rhat=np.where(mask, rij, 0.0),
        s=s,
        ds=np.where(mask, ds, 0.0),
        s_over_r=s / r_safe,
    )


def environment_np(
    coords: np.ndarray, batch: DescriptorBatch, cfg: DeePMDConfig, stats: EnvStats
) -> tuple[np.ndarray, EnvIntermediates]:
    """Raw-numpy normalized environment matrix (B, N, Nm, 4) + caches."""
    env = _env_intermediates(coords, batch, cfg)
    raw = np.empty((4,) + env.s.shape)
    raw[0] = env.s
    np.multiply(env.s, env.rhat, out=raw[1:])
    raw -= stats.davg[:, None, None, None]
    raw /= stats.dstd[:, None, None, None]
    np.copyto(raw, 0.0, where=~batch.mask)
    return np.ascontiguousarray(np.moveaxis(raw, 0, -1)), env


# ---------------------------------------------------------------------------
# graph (baseline) implementation
# ---------------------------------------------------------------------------
def environment_graph(
    coords: Tensor, batch: DescriptorBatch, cfg: DeePMDConfig, stats: EnvStats
) -> Tensor:
    """R~n built from autograd primitives (forces via plain backward)."""
    b, n, _ = coords.shape
    nm = batch.nmax
    flat = ops.reshape(coords, (b * n, 3))
    neigh = ops.index(flat, batch.idx_flat)  # (B, N, Nm, 3)
    center = ops.reshape(coords, (b, n, 1, 3))
    rij = ops.sub(ops.add(neigh, Tensor(batch.shift)), center)
    r2 = ops.tsum(ops.mul(rij, rij), axis=-1)
    r2_safe = ops.where(batch.mask, r2, ops.ones_like(r2))
    r = ops.sqrt(r2_safe)
    s = smooth_graph(r, cfg.rcut_smooth, cfg.rcut, batch.mask)
    s4 = ops.reshape(s, (b, n, nm, 1))
    r4 = ops.reshape(r, (b, n, nm, 1))
    rhat = ops.div(rij, r4)
    raw = ops.concat([s4, ops.mul(s4, rhat)], axis=-1)
    rn = ops.div(ops.sub(raw, Tensor(stats.davg)), Tensor(stats.dstd))
    return ops.where(batch.mask[..., None], rn, ops.zeros_like(rn))


# ---------------------------------------------------------------------------
# fused (Opt1) implementation with hand-derived backward
# ---------------------------------------------------------------------------
def _env_vjp(
    g_rn: np.ndarray, env: EnvIntermediates, batch: DescriptorBatch, stats: EnvStats
) -> np.ndarray:
    """d(sum(R~n * g_rn))/d(coords): the hand-derived Opt1 kernel.

    grij = ds*(g0 + gv.rhat)*rhat + (s/r)*(gv - (gv.rhat)*rhat), scattered
    with -grij on the center atom and +grij on the neighbor.  Works on
    component planes; both sums run in slot order (bincount), as the
    strided center sum and ``np.add.at`` did.
    """
    pad = ~batch.mask
    g = np.empty((4,) + pad.shape)
    np.divide(_planes(g_rn), stats.dstd[:, None, None, None], out=g)
    np.copyto(g, 0.0, where=pad)
    gv_dot = _dot3(g[1:], env.rhat)
    radial = g[0] + gv_dot
    radial *= env.ds
    grij = env.rhat * gv_dot
    np.subtract(g[1:], grij, out=grij)
    grij *= env.s_over_r
    grij += env.rhat * radial
    np.copyto(grij, 0.0, where=pad)
    b, n, nm = pad.shape
    center = np.repeat(np.arange(b * n), nm)
    out = np.empty((3, b * n))
    for k in range(3):
        out[k] = _scatter_sum(batch.idx_flat, grij[k], b * n)
        out[k] -= _scatter_sum(center, grij[k], b * n)  # == -center + neighbor
    return np.ascontiguousarray(np.moveaxis(out.reshape(3, b, n), 0, -1))


def _env_vjp_transpose(
    gg: np.ndarray, env: EnvIntermediates, batch: DescriptorBatch, stats: EnvStats
) -> np.ndarray:
    """Transpose of :func:`_env_vjp` as a linear map: given an upstream
    gradient on coords-gradients, produce the gradient on g_rn.  Needed
    when force predictions are differentiated w.r.t. the weights."""
    b, n = gg.shape[:2]
    c = _planes(gg).reshape(3, b * n)
    delta = np.take(c, batch.idx_flat, axis=1)  # (3, B, N, Nm)
    delta -= c.reshape(3, b, n)[..., None]
    d_dot = _dot3(delta, env.rhat)
    out = np.empty((4,) + d_dot.shape)
    np.multiply(env.ds, d_dot, out=out[0])
    np.multiply(env.rhat, out[0], out=out[1:])
    delta -= env.rhat * d_dot
    delta *= env.s_over_r
    out[1:] += delta
    out /= stats.dstd[:, None, None, None]
    np.copyto(out, 0.0, where=~batch.mask)
    return np.ascontiguousarray(np.moveaxis(out, 0, -1))


def _env_vjp_op(
    g_rn: Tensor, env: EnvIntermediates, batch: DescriptorBatch, stats: EnvStats
) -> Tensor:
    """The Opt1 vjp as a primitive: g_rn -> gcoords.  Its backward is
    :func:`_env_adjoint_op` and vice versa; the map is linear with
    weight-independent coefficients, so the pair gives correct derivatives
    of any order along the weight direction.  Each names the other at
    module level, so neither closure keeps the other (or its own output)
    alive and the graph stays acyclic."""
    out = _env_vjp(g_rn.data, env, batch, stats)

    def backward(g: Tensor, needs):
        return (_env_adjoint_op(g, env, batch, stats),)

    return make_op(out, (g_rn,), backward, "env_bwd_fused")


def _env_adjoint_op(
    gg: Tensor, env: EnvIntermediates, batch: DescriptorBatch, stats: EnvStats
) -> Tensor:
    """The adjoint of :func:`_env_vjp_op`: gcoords-gradient -> g_rn."""
    out = _env_vjp_transpose(gg.data, env, batch, stats)

    def backward(g: Tensor, needs):
        return (_env_vjp_op(g, env, batch, stats),)

    return make_op(out, (gg,), backward, "env_bwd_transpose_fused")


def _make_env_linear_ops(env, batch, stats):
    """``(vjp_op, adjoint_op)`` bound to one batch's geometry."""
    return (
        lambda g_rn: _env_vjp_op(g_rn, env, batch, stats),
        lambda gg: _env_adjoint_op(gg, env, batch, stats),
    )


def environment_fused(
    coords: Tensor, batch: DescriptorBatch, cfg: DeePMDConfig, stats: EnvStats
) -> Tensor:
    """R~n as a single fused kernel with hand-derived backward (Opt1)."""
    rn, env = environment_np(coords.data, batch, cfg, stats)

    def backward(g_rn: Tensor, needs):
        return (_env_vjp_op(g_rn, env, batch, stats),)

    return make_op(rn, (coords,), backward, "env_fused")
