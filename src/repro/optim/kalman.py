"""The shared Kalman-filter core used by RLEKF, Naive-EKF and FEKF.

Implements Algorithm 1 of the paper over a block-diagonal P:

    A  = 1 / (lambda + g^T P g)
    K  = A * P g
    P <- (P - A * (Pg)(Pg)^T) / lambda,  symmetrized
    lambda <- lambda * nu + 1 - nu
    w <- w + scale * ABE * K

Two P-update kernels are provided, mirroring the paper's Opt3 ("rewrite P
updating" + "cache intermediate results"):

* ``naive``  -- one dense temporary per algebraic step, exactly how a
  framework-level implementation (``torch.matmul``/``torch.outer``)
  executes it; every step records a kernel launch and allocates an
  N_b x N_b temporary -- the memory behaviour Sec. 5.3 attributes to the
  PyTorch implementation.
* ``fused``  -- the handwritten-kernel analog, built around moving P as
  little as possible.  Only the upper triangle is stored (symmetry by
  construction, no symmetrization pass) and the 1/lambda rescaling is
  *folded into a scalar* carried next to the block.  The rank-1 downdate
  is **deferred**: an update appends its ``(P g, A / scale)`` pair to a
  small per-block pending buffer ``U (n x k)``, ``beta (k)`` instead of
  rewriting the triangle, so the block the filter means is

      P_eff = scale * (P_stored - U diag(beta) U^T)

  and the cached product is ``P_eff g = scale * (dsymv(P_stored, g) -
  U (beta * (U^T g)))`` -- one triangle read plus an O(n k) correction.
  Every :data:`FLUSH_EVERY` updates the pending pairs are applied in
  *one* in-place rank-k pass over the triangle (BLAS ``dsyrk``).  Per
  update the P traffic drops from 1.5 |P| (symv read + syr read/write)
  to 0.5 |P| + |P| / FLUSH_EVERY; the algebra is the eager ``dsyr``'s
  (the tests keep one as the oracle), only the rounding order differs.
  The pending pairs are part of the filter state: ``clone``,
  ``checksum``, ``p_dense``, ``p_memory_bytes`` and the checkpoint keys
  carry them *without* flushing, so observing a filter never perturbs
  its trajectory.

The blocks are independent inside the two passes over P, so each state
splits them into *lanes* (:func:`~repro.optim.blocks.shard_blocks`, one
per core the BLAS leaves idle, see :mod:`repro.optim.lanes`): every
update's per-block ``P_eff g`` and every block's flush run on the lanes,
the caller's thread taking lane 0.  The BLAS calls go through scipy's
``cython_blas`` C entry points with ``ctypes``, which release the GIL
(its f2py wrappers do not).  Each block has exactly one writer lane and
everything between the two passes -- gains, downdate parking, the guard,
lambda, the step clip and the kernel-launch records, in block order --
stays on the caller's thread, so the result is bit-identical for any
lane count.

Scale-stabilization (documented deviations, see DESIGN.md): the 1/lambda
forgetting inflates P exponentially along directions the data never
excites ("covariance wind-up").  At the paper's scale -- tens of thousands
of updates per epoch over rich datasets -- excitation is persistent and
this is harmless; at laptop-scale datasets it is not, so the core applies
two standard RLS/EKF safeguards: a cap on the mean diagonal of each P
block and a trust-region clip on each weight increment.  Both default on
and can be disabled (``inf``) to recover the unguarded Algorithm 1.
"""

from __future__ import annotations

import ctypes
import functools
import mmap
from collections.abc import Mapping
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from ..autograd.instrument import record_launch, register_op
from .blocks import Block, shard_blocks, split_blocks
from .lanes import lane_count, map_lanes

# the Kalman-core kernels live outside the autograd graph (plain BLAS on
# P); registered so the launch accounting and the project lint know them
for _name in (
    "p_symv_fused", "p_gemv", "p_update_fused", "k_scale", "kkT_outer",
    "p_sub", "p_scale", "p_symmetrize",
):
    register_op(_name, kind="optim", second_order=False)
del _name

#: fused backend: rank-1 downdates held pending per block before one
#: in-place rank-k pass applies them.  A constant of the kernel, not a
#: knob: ``dsyrk`` costs about the same for any k <= 20 (62-67 ms at
#: n = 10240 against 41 ms for a single ``dsyr``), beyond that it grows
#: with k.  Must stay > 10: Figure 7(b) and the profiler reconciliation
#: test count kernels on the first or second step (5 updates each) of a
#: fresh optimizer, and no flush may land inside what they profile.
FLUSH_EVERY = 20


def _tri(n: int) -> int:
    """Elements of one triangle (diagonal included) of an n x n block."""
    return n * (n + 1) // 2


def _triangle_block(n: int, src: np.ndarray | None = None) -> np.ndarray:
    """A fused P block: n x n, F-ordered, holding the upper triangle of
    ``src`` (the identity when ``src`` is None), with only the pages of
    that triangle resident.

    The block is a private anonymous mapping with 4 KB pages, filled
    column by column, so no page that lies wholly below the diagonal is
    ever touched; the lower triangle still reads 0.0 (the shared zero
    page, which RSS does not count).  Not ``np.eye``: numpy hints every
    array of 4 MB or more for transparent hugepages, and one 2 MB page of
    an F-ordered block spans whole columns, diagonal included, so the
    identity alone would fault in the entire square.  ``MAP_PRIVATE``,
    not Python's default ``MAP_SHARED``: a forked rank must get its own
    copy-on-write filter, not write into its parent's.  Every page of the
    triangle is written here, when the block is built, so no timed flush
    faults one in.
    """
    buf = mmap.mmap(-1, n * n * 8, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):  # absent where there is no THP
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    p = np.frombuffer(buf, dtype=np.float64).reshape((n, n), order="F")
    for j in range(n):
        if src is None:
            p[:j, j] = 0.0
            p[j, j] = 1.0
        else:
            p[: j + 1, j] = src[: j + 1, j]
    return p


# ----------------------------------------------------------------------
# GIL-free BLAS: the Fortran routines behind scipy.linalg.cython_blas,
# called through ctypes (which drops the GIL for the call)
# ----------------------------------------------------------------------
_capsule_name = ctypes.pythonapi.PyCapsule_GetName
_capsule_name.restype, _capsule_name.argtypes = ctypes.c_char_p, [ctypes.py_object]
_capsule_ptr = ctypes.pythonapi.PyCapsule_GetPointer
_capsule_ptr.restype = ctypes.c_void_p
_capsule_ptr.argtypes = [ctypes.py_object, ctypes.c_char_p]


@functools.cache
def bind_blas() -> SimpleNamespace:
    """The BLAS routines of the Kalman kernels, bound on first use, not at
    import: scipy costs ~25 MB of RSS that a process which never runs a
    filter (a server, a labeler) should not pay.  Every
    :class:`KalmanState` binds them when it is built, on the caller's
    thread, before any of its lanes runs.  A process that forks ranks
    which will build filters binds first, so the ranks share its scipy
    instead of each importing their own (~0.3 s of CPU and ~4k page
    faults per rank, inside the caller's first round)."""
    from scipy.linalg import cython_blas

    def bind(name: str, n_args: int):
        cap = cython_blas.__pyx_capi__[name]
        addr = _capsule_ptr(cap, _capsule_name(cap))
        return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * n_args)(addr)

    return SimpleNamespace(
        dsymv=bind("dsymv", 10), dgemv=bind("dgemv", 11), dsyrk=bind("dsyrk", 10)
    )


def _i(v: int):
    return ctypes.byref(ctypes.c_int(v))


def _d(v: float):
    return ctypes.byref(ctypes.c_double(v))


def _ptr(a: np.ndarray, shape: tuple) -> int:
    """Address of a column-major float64 array of ``shape`` (BLAS reads
    any other layout as a different matrix, and past a short one)."""
    if a.shape != shape or a.dtype != np.float64 or not a.flags.f_contiguous:
        raise ValueError(
            f"BLAS operand must be F-contiguous float64 {shape}, got {a.dtype} {a.shape}"
        )
    return a.ctypes.data


def _symv(alpha: float, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``alpha * A x`` from the upper triangle of the n x n block ``a``."""
    n = x.shape[0]
    y = np.zeros(n)
    bind_blas().dsymv(b"U", _i(n), _d(alpha), _ptr(a, (n, n)), _i(n), _ptr(x, (n,)),
                      _i(1), _d(0.0), _ptr(y, (n,)), _i(1))
    return y


def _gemv_into(alpha: float, a: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    """``y += alpha * A x`` in place, ``a`` n x k."""
    n, k = a.shape
    bind_blas().dgemv(b"N", _i(n), _i(k), _d(alpha), _ptr(a, (n, k)), _i(n),
                      _ptr(x, (k,)), _i(1), _d(1.0), _ptr(y, (n,)), _i(1))


def _syrk_into(alpha: float, w: np.ndarray, c: np.ndarray) -> None:
    """``C += alpha * W W^T`` on the upper triangle of ``c``, in place."""
    n, k = w.shape
    bind_blas().dsyrk(b"U", b"N", _i(n), _i(k), _d(alpha), _ptr(w, (n, k)), _i(n),
                      _d(1.0), _ptr(c, (n, n)), _i(n))


@dataclass
class KalmanConfig:
    """Hyperparameters of the Kalman core (paper Sec. 3.2 defaults)."""

    lambda0: float = 0.98
    nu: float = 0.9987
    blocksize: int = 10240
    #: per-block scalar gains (RLEKF layerwise behaviour) vs one coupled
    #: global gain across blocks (the literal Algorithm 1 reading).
    coupled_gain: bool = False
    #: use the fused triangular-BLAS P update kernel (paper Opt3).
    fused_update: bool = False
    #: anti-windup bound on mean(diag(P_i)); ``inf`` disables.
    p_trace_cap: float = 2.0
    #: trust-region clip on |dw| per update; ``inf`` disables.
    max_step_norm: float = 0.1

    @staticmethod
    def for_batch_size(batch_size: int, **overrides) -> "KalmanConfig":
        """The paper's tuning guidance: lambda0=0.98/nu=0.9987 by default,
        lambda0=0.90/nu=0.996 once the batch size exceeds 1024.  An
        override that names no field raises ``TypeError``."""
        base = KalmanConfig(lambda0=0.90, nu=0.996) if batch_size > 1024 else KalmanConfig()
        return replace(base, **overrides)


class KalmanState:
    """Block-diagonal P, the memory factor lambda, and update kernels.

    Internally each block is an n x n array.  The naive backend keeps it
    dense-symmetric; the fused backend uses only the upper triangle
    (Fortran order for BLAS, only the triangle's pages resident, see
    :func:`_triangle_block`) plus a folded scalar ``p_scale`` absorbing
    the accumulated 1/lambda factors, and holds the
    last ``pending`` (< :data:`FLUSH_EVERY`) rank-1 downdates of every
    block unapplied in ``pend_u[i][:, :pending]`` /
    ``pend_beta[i, :pending]`` (see the module docstring).  ``lanes``
    lists the block indices each lane runs, lane 0 on the caller's
    thread; it is fixed at construction.
    """

    def __init__(self, num_params: int, layer_sizes: list[tuple[int, int]], cfg: KalmanConfig):
        bind_blas()
        self.cfg = cfg
        self.num_params = num_params
        self.blocks: list[Block] = split_blocks(layer_sizes, cfg.blocksize)
        total = sum(b.size for b in self.blocks)
        if total != num_params:
            raise ValueError(f"blocks cover {total} of {num_params} weights")
        self.p_mats: list[np.ndarray] = [
            _triangle_block(b.size) if cfg.fused_update else np.eye(b.size)
            for b in self.blocks
        ]
        self.p_scales: list[float] = [1.0 for _ in self.blocks]
        # deferred downdates (fused backend only; the naive one has none)
        self.pending = 0
        self.pend_u: list[np.ndarray] = [
            np.zeros((b.size, FLUSH_EVERY), order="F")
            for b in (self.blocks if cfg.fused_update else ())
        ]
        self.pend_beta = np.zeros((len(self.pend_u), FLUSH_EVERY))
        self.lam = float(cfg.lambda0)
        self.updates = 0
        self.lanes = shard_blocks(self.blocks, lane_count(len(self.blocks)))

    # ------------------------------------------------------------------
    def p_memory_bytes(self) -> int:
        """Filter state in the paper's Sec. 5.3 accounting: the logical
        bytes of the square P blocks plus the pending buffers.  On the
        fused backend only each block's upper triangle is resident, about
        half of this."""
        return (
            sum(p.nbytes for p in self.p_mats)
            + sum(u.nbytes for u in self.pend_u)
            + self.pend_beta.nbytes
        )

    def advance_lambda(self) -> None:
        self.lam = self.lam * self.cfg.nu + 1.0 - self.cfg.nu

    def p_dense(self, i: int) -> np.ndarray:
        """Reconstruct the full dense P block (test/diagnostic helper)."""
        p = self.p_mats[i]
        if self.cfg.fused_update:
            full = np.triu(p) + np.triu(p, 1).T
            u, beta = self._pending(i)
            return self.p_scales[i] * (full - (u * beta) @ u.T)
        return p.copy()

    def _pending(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """The live pending pairs of block i: ``U (n x k)``, ``beta (k)``."""
        k = self.pending
        return self.pend_u[i][:, :k], self.pend_beta[i, :k]

    def _trace(self, i: int) -> float:
        """trace of block i before ``p_scale``, pending downdates included
        (O(n k), never a pass over the block)."""
        tr = np.trace(self.p_mats[i])
        if self.pending:
            u, beta = self._pending(i)
            tr -= beta @ np.square(u).sum(axis=0)
        return float(tr)

    # ------------------------------------------------------------------
    # kernels: they run on the lanes, so each returns the launch it
    # performed and the caller records it (launch sinks are per thread)
    # ------------------------------------------------------------------
    def _pg(self, i: int, g: np.ndarray) -> tuple[np.ndarray, tuple]:
        """P g for block i (the cached intermediate of the paper's Opt3)."""
        if self.cfg.fused_update:
            # one fused "P_eff g" kernel: triangle read + pending correction
            c, n, k = self.p_scales[i], g.shape[0], self.pending
            pg = _symv(c, self.p_mats[i], g)
            if k:
                u, beta = self._pending(i)
                _gemv_into(-c, u, beta * (u.T @ g), pg)
            return pg, ("p_symv_fused", 8 * (_tri(n) + 2 * n * k), (n,), ((n, n), (n, k)))
        pg = self.p_mats[i] @ g
        return pg, ("p_gemv", pg.nbytes)

    def _downdate(self, i: int, pg: np.ndarray, a: float) -> None:
        """P_i <- (P_i - a * pg pg^T) / lambda."""
        if self.cfg.fused_update:
            # deferred: park the pair (update() flushes every FLUSH_EVERY);
            # 1/lambda folded into the block scale, so nothing touches P.
            c = self.p_scales[i]
            self.pend_u[i][:, self.pending] = pg
            self.pend_beta[i, self.pending] = a / c
            self.p_scales[i] = c / self.lam
        else:
            p = self.p_mats[i]
            k = a * pg
            record_launch("k_scale", k.nbytes)
            kkt = np.outer(k, k / a)  # the N_b x N_b temporary
            record_launch("kkT_outer", kkt.nbytes)
            p1 = p - kkt
            record_launch("p_sub", p1.nbytes)
            p1 = p1 / self.lam
            record_launch("p_scale", p1.nbytes)
            p1 = (p1 + p1.T) / 2.0
            record_launch("p_symmetrize", p1.nbytes)
            self.p_mats[i] = p1

    def _flush_block(self, i: int) -> tuple:
        """Apply block i's pending downdates in place:
        ``P_stored <- P_stored - U diag(beta) U^T`` as one ``dsyrk`` over
        the upper triangle (a second one only if some gain went negative:
        ``dsyrk`` takes one sign per call, and a block that lost
        definiteness must get exactly what ``dsyr(-beta_j, u_j)`` gave)."""
        u, beta = self._pending(i)
        n, k = u.shape
        negative = beta < 0.0
        scaled = u * np.sqrt(np.abs(beta))  # F-ordered like u
        moved = 0
        for sign, cols in ((1.0, ~negative), (-1.0, negative)):
            if not cols.any():
                continue
            w = scaled if cols.all() else np.asfortranarray(scaled[:, cols])
            _syrk_into(-sign, w, self.p_mats[i])
            moved += 8 * (2 * _tri(n) + w.size)  # triangle read+write, U
        return ("p_update_fused", moved, (n, n), ((n, k),))

    def _flush(self) -> None:
        """Flush every block (one lane per block set), then record the
        flushes in block order."""
        for launch in map_lanes(self._flush_block, self.lanes):
            record_launch(*launch)
        self.pending = 0

    # ------------------------------------------------------------------
    def update(self, g_flat: np.ndarray, error: float, scale: float) -> np.ndarray:
        """One Kalman update; returns the weight increment (flat vector).

        ``error`` is the (sign-aligned) mean absolute error ABE, ``scale``
        the sqrt(batch-size) quasi-learning-rate factor of Eq. 2.
        """
        if g_flat.shape != (self.num_params,):
            raise ValueError(f"gradient shape {g_flat.shape} != ({self.num_params},)")
        g_flat = np.ascontiguousarray(g_flat, dtype=np.float64)
        dw = np.zeros(self.num_params)

        gs = [g_flat[blk.slice()] for blk in self.blocks]
        pgs = []
        for pg, launch in map_lanes(lambda i: self._pg(i, gs[i]), self.lanes):
            record_launch(*launch)
            pgs.append(pg)
        quads = [float(g @ pg) for g, pg in zip(gs, pgs)]

        if self.cfg.coupled_gain:
            a = 1.0 / (self.lam + sum(quads))
            gains = [a] * len(self.blocks)
        else:
            gains = [1.0 / (self.lam + q) for q in quads]

        for i, blk in enumerate(self.blocks):
            self._downdate(i, pgs[i], gains[i])
            dw[blk.slice()] = (scale * error * gains[i]) * pgs[i]
        if self.cfg.fused_update:
            self.pending += 1

        self._guard()
        self.advance_lambda()
        self.updates += 1
        if self.pending == FLUSH_EVERY:
            self._flush()
        norm = float(np.linalg.norm(dw))
        if norm > self.cfg.max_step_norm:
            dw *= self.cfg.max_step_norm / norm
        return dw

    def _guard(self) -> None:
        """Anti-windup: rescale any P block whose mean diagonal exceeds
        the configured cap (no-op when the cap is inf)."""
        cap = self.cfg.p_trace_cap
        if not np.isfinite(cap):
            return
        for i, p in enumerate(self.p_mats):
            mean_diag = self.p_scales[i] * self._trace(i) / p.shape[0]
            if mean_diag > cap:
                if self.cfg.fused_update:
                    self.p_scales[i] *= cap / mean_diag
                else:
                    p *= cap / mean_diag

    # ------------------------------------------------------------------
    def clone(self) -> "KalmanState":
        """Deep copy (used to fork per-sample P replicas in Naive-EKF)."""
        other = KalmanState.__new__(KalmanState)
        other.cfg = self.cfg
        other.num_params = self.num_params
        other.blocks = self.blocks
        other.p_mats = self._copy_p_mats()
        other.p_scales = list(self.p_scales)
        other.pending = self.pending
        other.pend_u = [u.copy(order="K") for u in self.pend_u]
        other.pend_beta = self.pend_beta.copy()
        other.lam = self.lam
        other.updates = self.updates
        other.lanes = self.lanes
        return other

    def _copy_p_mats(self) -> list[np.ndarray]:
        """New copies of the stored blocks: the upper triangle into a
        fresh triangle block (fused), the whole square (naive)."""
        if self.cfg.fused_update:
            return [_triangle_block(p.shape[0], p) for p in self.p_mats]
        return [p.copy(order="K") for p in self.p_mats]

    def p_state(self) -> dict[str, np.ndarray]:
        """Copies of the stored P under the checkpoint keys: every block
        as ``kalman/p{i}`` and, on the fused backend, the live pending
        pairs as ``kalman/pending_beta`` / ``kalman/pending_u{i}`` --
        saved as they are, never flushed to take a snapshot."""
        out = {f"kalman/p{i}": p for i, p in enumerate(self._copy_p_mats())}
        if self.cfg.fused_update:
            out["kalman/pending_beta"] = self.pend_beta[:, : self.pending].copy()
            for i, u in enumerate(self.pend_u):
                out[f"kalman/pending_u{i}"] = u[:, : self.pending].copy()
        return out

    def load_p_state(self, state: Mapping[str, np.ndarray]) -> None:
        """Restore the stored P from arrays :meth:`p_state` produced.

        The blocks are copied (the fused update runs in place, and the
        caller's snapshot must not be the array it then mutates); a fused
        block copies the upper triangle only: everything this code writes
        holds 0.0 below the diagonal.  A missing or misshapen block, or
        more pending pairs than this build defers, raises ``ValueError``
        before anything changes.
        """
        blocks = [state.get(f"kalman/p{i}") for i in range(len(self.blocks))]
        for p, b in zip(blocks, self.blocks):
            if p is None or np.shape(p) != (b.size, b.size):
                raise ValueError("checkpoint block structure does not match")
        # absent before the deferred downdate existed: nothing pending
        pending = np.asarray(
            state.get("kalman/pending_beta", self.pend_beta[:, :0])
        )
        if pending.shape[1] >= self.pend_beta.shape[1]:
            raise ValueError(
                "checkpoint holds more pending downdates than this build defers"
            )
        if self.cfg.fused_update:
            self.p_mats = [_triangle_block(p.shape[0], np.asarray(p)) for p in blocks]
        else:
            self.p_mats = [np.array(p, order="C") for p in blocks]
        self.pending = pending.shape[1]
        if self.pending:
            self.pend_beta[:, : self.pending] = pending
            for i, u in enumerate(self.pend_u):
                u[:, : self.pending] = state[f"kalman/pending_u{i}"]

    def checksum(self) -> float:
        """Cheap fingerprint for replica-consistency assertions."""
        total = sum(c * self._trace(i) for i, c in enumerate(self.p_scales))
        return float(total) + self.lam
