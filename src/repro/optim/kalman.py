"""The shared Kalman-filter core used by RLEKF, Naive-EKF and FEKF.

Implements Algorithm 1 of the paper over a block-diagonal P:

    A  = 1 / (lambda + g^T P g)
    K  = A * P g
    P <- (P - A * (Pg)(Pg)^T) / lambda,  symmetrized
    lambda <- lambda * nu + 1 - nu
    w <- w + scale * ABE * K

The P update is the paper's Opt3 ("rewrite P updating" + "cache
intermediate results"), the handwritten-kernel analog built around moving
P as little as possible.  Only the upper triangle is stored (symmetry by
construction, no symmetrization pass) and the 1/lambda rescaling is
*folded into a scalar* carried next to the block.  The rank-1 downdate is
**deferred**: an update appends its ``(P g, A / scale)`` pair to a small
per-block pending buffer ``U (n x k)``, ``beta (k)`` instead of rewriting
the triangle, so the block the filter means is

    P_eff = scale * (P_stored - U diag(beta) U^T)

and the cached product is ``P_eff g = scale * (P_stored g - U (beta *
(U^T g)))`` -- one triangle read plus an O(n k) correction.  The triangle
read is a hand-written kernel (:mod:`repro.optim.tri_kernel`), not
``dsymv``: ``P_stored`` holds between flushes, so updates whose
gradients are known together (FEKF's four force groups under the shared
force graph, :meth:`KalmanState.update_many`) share one read of it, and
each column gets the bits a one-column read gives it.
Every :data:`FLUSH_EVERY` updates the pending pairs are applied in *one*
in-place rank-k pass over the triangle (BLAS ``dsyrk``).  Per update the P
traffic drops from 1.5 |P| (symv read + syr read/write) to 0.5 |P| +
|P| / FLUSH_EVERY; the algebra is the eager ``dsyr``'s (the tests keep
one as the oracle), only the rounding order differs.  The pending pairs
are part of the filter state: ``clone``, ``checksum``, ``p_dense``,
``p_memory_bytes`` and the checkpoint keys carry them *without* flushing,
so observing a filter never perturbs its trajectory.
The framework-style dense update is not an option of this class; it is
Figure 7's baseline, :class:`repro.perf.presets.DenseKalmanState`.

The blocks are independent inside the two passes over P, so each state
splits them into *lanes* (:func:`~repro.optim.blocks.shard_blocks`, one
per core, see :mod:`repro.optim.lanes`): every
pass's per-block ``P_stored G``, every update's per-block correction and
every block's flush run on the lanes, the caller's thread taking lane 0.
The kernel and the BLAS calls (scipy's ``cython_blas`` C entry points)
go through ``ctypes``, which releases the GIL (scipy's f2py wrappers do
not).  Each block has exactly one writer lane and
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
import weakref
from collections.abc import Mapping
from dataclasses import InitVar, dataclass, replace
from types import SimpleNamespace

import numpy as np

from ..autograd.instrument import record_launch, register_op
from . import tri_kernel
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

#: rank-1 downdates held pending per block before one
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
    p = _untouched_block(n)
    for j, col in enumerate(triangle_columns(p)):
        if src is None:
            col[:j] = 0.0
            col[j] = 1.0
        else:
            col[:] = src[: j + 1, j]
    return p


def _untouched_block(n: int) -> np.ndarray:
    """The mapping of a fused P block with no page touched: every entry
    reads 0.0 until its column of :func:`triangle_columns` is written."""
    buf = mmap.mmap(-1, n * n * 8, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):  # absent where there is no THP
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=np.float64).reshape((n, n), order="F")


#: the blocks :func:`unfilled_triangle_block` handed to a reader, by id,
#: until a filter adopts them (held weakly)
_HANDED_OVER = weakref.WeakValueDictionary()


def unfilled_triangle_block(n: int) -> np.ndarray:
    """An untouched block for a reader (a checkpoint load) to fill and
    hand to :meth:`KalmanState.load_p_state`, which adopts it instead of
    copying it: nothing but the reader's state holds it."""
    p = _untouched_block(n)
    _HANDED_OVER[id(p)] = p
    return p


def triangle_columns(p: np.ndarray) -> list[np.ndarray]:
    """The upper triangle of the F-ordered block ``p``, column by column,
    as contiguous views: the only part of a fused block that is stored,
    and so the only part a checkpoint writes and reads back into
    :func:`unfilled_triangle_block` pages."""
    return [p[: j + 1, j] for j in range(p.shape[0])]


def triangle_keys(state: Mapping[str, np.ndarray]) -> list[str]:
    """The keys of an EKF optimizer's ``state_dict`` that hold fused
    blocks (``kalman/p{i}`` when ``kalman/fused`` is set): a checkpoint
    stores them as :func:`triangle_columns`, every other array whole."""
    if not int(state.get("kalman/fused", 0)):
        return []
    return [f"kalman/p{i}" for i in range(len(state["kalman/p_scales"]))]


# ----------------------------------------------------------------------
# GIL-free kernels: the hand-written P.G pass (``tri_kernel``) and the
# Fortran BLAS behind scipy.linalg.cython_blas, called through ctypes
# (which drops the GIL for the call)
# ----------------------------------------------------------------------
_capsule_name = ctypes.pythonapi.PyCapsule_GetName
_capsule_name.restype, _capsule_name.argtypes = ctypes.c_char_p, [ctypes.py_object]
_capsule_ptr = ctypes.pythonapi.PyCapsule_GetPointer
_capsule_ptr.restype = ctypes.c_void_p
_capsule_ptr.argtypes = [ctypes.py_object, ctypes.c_char_p]

#: OpenBLAS's thread setters (``64_``: numpy's ILP64 build; no ``scipy_``:
#: wheels before numpy 2 and scipy 1.13)
_SET_THREADS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                "openblas_set_num_threads64_", "openblas_set_num_threads")


@functools.cache
def bind_kernels() -> SimpleNamespace:
    """The Kalman kernels, bound on first use, not at import: scipy costs
    ~25 MB of RSS that a process which never runs a filter (a server, a
    labeler) should not pay, and the P.G kernel may have to be compiled
    (:mod:`repro.optim.tri_kernel`).  Every :class:`KalmanState` binds
    them when it is built, on the caller's thread, before any of its
    lanes runs.  A process that forks ranks which will build filters
    binds first, so the ranks share its scipy and its library instead of
    each loading their own (~0.3 s of CPU and ~4k page faults per rank,
    inside the caller's first round).  Binding sets both OpenBLAS pools,
    numpy's and scipy's, to one thread: the lanes take every core
    (:mod:`repro.optim.lanes`).  A BLAS with no such setter is left alone."""
    from numpy.linalg import _umath_linalg
    from scipy.linalg import cython_blas

    for lib in map(ctypes.CDLL, (_umath_linalg.__file__, cython_blas.__file__)):
        for name in _SET_THREADS:
            if hasattr(lib, name):
                setter = getattr(lib, name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break

    def bind(name: str, n_args: int):
        cap = cython_blas.__pyx_capi__[name]
        addr = _capsule_ptr(cap, _capsule_name(cap))
        return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * n_args)(addr)

    return SimpleNamespace(
        tri_pg=tri_kernel.load(), dgemv=bind("dgemv", 11), dsyrk=bind("dsyrk", 10)
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


def _tri_pg(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``A G`` from the upper triangle of the n x n block ``a``, read once
    per 4 columns of the n x m ``g`` (m == 1 or a multiple of 4)."""
    n, m = g.shape
    if m != 1 and m % 4:
        raise ValueError(f"the P.G kernel takes 1 or 4k columns, got {m}")
    y = np.empty((n, m), order="F")
    bind_kernels().tri_pg(n, _ptr(a, (n, n)), _ptr(g, (n, m)), _ptr(y, (n, m)), m)
    return y


def _gemv_into(alpha: float, a: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    """``y += alpha * A x`` in place, ``a`` n x k."""
    n, k = a.shape
    bind_kernels().dgemv(b"N", _i(n), _i(k), _d(alpha), _ptr(a, (n, k)), _i(n),
                         _ptr(x, (k,)), _i(1), _d(1.0), _ptr(y, (n,)), _i(1))


def _syrk_into(alpha: float, w: np.ndarray, c: np.ndarray) -> None:
    """``C += alpha * W W^T`` on the upper triangle of ``c``, in place."""
    n, k = w.shape
    bind_kernels().dsyrk(b"U", b"N", _i(n), _i(k), _d(alpha), _ptr(w, (n, k)), _i(n),
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
    #: anti-windup bound on mean(diag(P_i)); ``inf`` disables.
    p_trace_cap: float = 2.0
    #: trust-region clip on |dw| per update; ``inf`` disables.
    max_step_norm: float = 0.1
    #: retired (Opt3 is the only ``KalmanState``): stores nothing, only True passes
    fused_update: InitVar[bool] = True

    def __post_init__(self, fused_update: bool) -> None:
        if fused_update is not True:
            raise ValueError("the fused P update is the only KalmanState; the dense one is the "
                             "baseline/opt1/opt2 presets' (repro.perf.presets.DenseKalmanState)")

    @staticmethod
    def for_batch_size(batch_size: int, **overrides) -> "KalmanConfig":
        """The paper's tuning guidance: lambda0=0.98/nu=0.9987 by default,
        lambda0=0.90/nu=0.996 once the batch size exceeds 1024.  An
        override that names no field raises ``TypeError``."""
        base = KalmanConfig(lambda0=0.90, nu=0.996) if batch_size > 1024 else KalmanConfig()
        return replace(base, **overrides)


class KalmanState:
    """Block-diagonal P, the memory factor lambda, and update kernels.

    Each block is an n x n F-ordered array of which only the upper
    triangle is used (and resident, see :func:`_triangle_block`), times a
    folded scalar ``p_scale``, minus the last ``pending`` (<
    :data:`FLUSH_EVERY`) rank-1 downdates held in
    ``pend_u[i][:, :pending]`` / ``pend_beta[i, :pending]``.  ``lanes``
    lists the block indices each lane runs, lane 0 on the caller's
    thread.  Figure 7's dense baseline (``perf.presets.DenseKalmanState``)
    overrides the per-block storage and kernels; ``fused`` is the
    checkpoint's ``kalman/fused``.
    """

    fused = True
    #: pending pairs each block's buffers hold (``update`` flushes when full)
    defers = FLUSH_EVERY
    #: a stored block: the identity, or a copy of ``src``'s upper triangle
    _block = staticmethod(_triangle_block)

    def __init__(self, num_params: int, layer_sizes: list[tuple[int, int]], cfg: KalmanConfig):
        bind_kernels()
        self.cfg = cfg
        self.num_params = num_params
        self.blocks: list[Block] = split_blocks(layer_sizes, cfg.blocksize)
        total = sum(b.size for b in self.blocks)
        if total != num_params:
            raise ValueError(f"blocks cover {total} of {num_params} weights")
        self.p_mats: list[np.ndarray] = [self._block(b.size) for b in self.blocks]
        self.p_scales: list[float] = [1.0 for _ in self.blocks]
        self.pending = 0
        self.pend_u = [np.zeros((b.size, self.defers), order="F") for b in self.blocks]
        self.pend_beta = np.zeros((len(self.blocks), self.defers))
        self.lam = float(cfg.lambda0)
        self.updates = 0
        self.lanes = shard_blocks(self.blocks, lane_count(len(self.blocks)))

    # ------------------------------------------------------------------
    def p_memory_bytes(self) -> int:
        """Filter state in the paper's Sec. 5.3 accounting: the logical
        bytes of the square P blocks plus the pending buffers.  Only each
        block's upper triangle is resident, about half of this."""
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
        full = np.triu(p) + np.triu(p, 1).T
        u, beta = self._pending(i)
        return self.p_scales[i] * (full - (u * beta) @ u.T)

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
    def _pass(self, i: int, gs: list[np.ndarray]) -> tuple[np.ndarray, tuple]:
        """``P_stored [g_1 .. g_m]`` for block i (n x m, 2 or 3 columns
        padded to 4: the kernel gives every column the same bits for any
        column count): one triangle read per 4 columns, recorded as one
        ``p_symv_fused`` launch with the column count in its output
        shape, ``(n,)`` for one column and ``(n, m)`` for more, and the
        pending pairs when the pass starts in its input shapes."""
        n, m, k = gs[0].shape[0], len(gs), self.pending
        if m == 1:
            g = gs[0].reshape(n, 1)
        else:
            g = np.zeros((n, -(-m // 4) * 4), order="F")
            for j, gj in enumerate(gs):
                g[:, j] = gj
        out = (n,) if m == 1 else (n, m)
        launch = ("p_symv_fused", 8 * (_tri(n) + 2 * m * n * k), out, ((n, n), (n, k)))
        return _tri_pg(self.p_mats[i], g), launch

    def _pg(self, i: int, y: np.ndarray, g: np.ndarray) -> np.ndarray:
        """P_eff g for block i from ``y = P_stored g`` (the cached
        intermediate of the paper's Opt3): the folded scale and the O(n k)
        correction of the pending downdates."""
        c = self.p_scales[i]
        pg = c * y
        if self.pending:
            u, beta = self._pending(i)
            _gemv_into(-c, u, beta * (u.T @ g), pg)
        return pg

    def _downdate(self, pgs: list[np.ndarray], gains: list[float]) -> None:
        """P_i <- (P_i - a_i * pg_i pg_i^T) / lambda, deferred: park the
        pairs (update() flushes when full), fold 1/lambda into the scales."""
        k = self.pending
        for i, (pg, a) in enumerate(zip(pgs, gains)):
            c = self.p_scales[i]
            self.pend_u[i][:, k] = pg
            self.pend_beta[i, k] = a / c
            self.p_scales[i] = c / self.lam
        self.pending = k + 1

    def _rescale(self, i: int, factor: float) -> None:
        self.p_scales[i] *= factor

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
        return self.update_many([(g_flat, error)], scale)[0]

    def update_many(
        self, items: list[tuple[np.ndarray, float]], scale: float
    ) -> list[np.ndarray]:
        """One Kalman update per ``(g_flat, error)`` of ``items``, in
        order, for gradients that are all known before the first update;
        returns the weight increments.

        Gives the bits of one :meth:`update` per item.  ``P_stored``
        changes only at a flush, so one pass per block forms
        ``P_stored g`` for every item up to the next flush (one triangle
        read per 4 items); each update then applies its own scale,
        pending correction, gain, guard, lambda and clip in turn, and a
        flush starts a new pass for the items after it.
        """
        gs = []
        for g_flat, _ in items:
            if g_flat.shape != (self.num_params,):
                raise ValueError(f"gradient shape {g_flat.shape} != ({self.num_params},)")
            g_flat = np.ascontiguousarray(g_flat, dtype=np.float64)
            gs.append([g_flat[blk.slice()] for blk in self.blocks])
        dws: list[np.ndarray] = []
        while len(dws) < len(items):
            # the stored blocks hold until the next flush (the dense filter
            # rewrites them every update, so its windows are one update)
            start = len(dws)
            window = gs[start: start + max(1, self.defers - self.pending)]

            def first(i: int):  # the pass, then the first update's P_eff g from it
                y, launch = self._pass(i, [w[i] for w in window])
                return y, launch, self._pg(i, y[:, 0], window[0][i])

            ys, pgs = [], []
            for y, launch, pg in map_lanes(first, self.lanes):
                record_launch(*launch)
                ys.append(y)
                pgs.append(pg)
            for j, g_blocks in enumerate(window):
                if j:
                    pgs = map_lanes(lambda i: self._pg(i, ys[i][:, j], g_blocks[i]), self.lanes)
                dws.append(self._finish(g_blocks, pgs, items[start + j][1], scale))
        return dws

    def _finish(
        self, gs: list[np.ndarray], pgs: list[np.ndarray], error: float, scale: float
    ) -> np.ndarray:
        """Everything of one update after its ``P_eff g``: gains, the
        (parked) downdate, the increment, the guard, lambda, a due flush
        and the step clip."""
        quads = [float(g @ pg) for g, pg in zip(gs, pgs)]
        if self.cfg.coupled_gain:
            a = 1.0 / (self.lam + sum(quads))
            gains = [a] * len(self.blocks)
        else:
            gains = [1.0 / (self.lam + q) for q in quads]

        dw = np.zeros(self.num_params)
        self._downdate(pgs, gains)
        for i, blk in enumerate(self.blocks):
            dw[blk.slice()] = (scale * error * gains[i]) * pgs[i]

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
                self._rescale(i, cap / mean_diag)

    # ------------------------------------------------------------------
    def clone(self) -> "KalmanState":
        """Deep copy of the same class (used to fork per-sample P
        replicas in Naive-EKF)."""
        other = object.__new__(type(self))
        other.cfg = self.cfg
        other.num_params = self.num_params
        other.blocks = self.blocks
        other.p_mats = [self._block(p.shape[0], p) for p in self.p_mats]
        other.p_scales = list(self.p_scales)
        other.pending = self.pending
        other.pend_u = [u.copy(order="K") for u in self.pend_u]
        other.pend_beta = self.pend_beta.copy()
        other.lam = self.lam
        other.updates = self.updates
        other.lanes = self.lanes
        return other

    def p_state(self) -> dict[str, np.ndarray]:
        """Copies of the stored P under the checkpoint keys: every block
        as ``kalman/p{i}`` and the live pending pairs as
        ``kalman/pending_beta`` / ``kalman/pending_u{i}`` -- saved as they
        are, never flushed to take a snapshot."""
        out = {f"kalman/p{i}": self._block(p.shape[0], p) for i, p in enumerate(self.p_mats)}
        out["kalman/pending_beta"] = self.pend_beta[:, : self.pending].copy()
        for i, u in enumerate(self.pend_u):
            out[f"kalman/pending_u{i}"] = u[:, : self.pending].copy()
        return out

    def load_p_state(self, state: Mapping[str, np.ndarray]) -> None:
        """Restore the stored P from arrays :meth:`p_state` produced.

        A block a reader filled (:func:`unfilled_triangle_block`) is
        adopted, once; every other block is copied (the update runs in
        place, and the caller's snapshot must not be the array it then
        mutates), the upper triangle only: everything this code writes
        holds 0.0 below the diagonal.  A missing or misshapen block,
        ``pending_beta`` not ``(n_blocks, k)``, ``pending_u{i}`` not
        ``(block size, k)``, or more pending pairs than this filter defers
        raises ``ValueError`` before anything changes.
        """
        blocks = [state.get(f"kalman/p{i}") for i in range(len(self.blocks))]
        for p, b in zip(blocks, self.blocks):
            if p is None or np.shape(p) != (b.size, b.size):
                raise ValueError("checkpoint block structure does not match")
        beta = np.asarray(state.get("kalman/pending_beta"))
        if beta.ndim != 2 or beta.shape[0] != len(self.blocks):
            raise ValueError(f"checkpoint kalman/pending_beta has shape {beta.shape}")
        k = beta.shape[1]
        if k > min(self.defers, FLUSH_EVERY - 1):
            raise ValueError("checkpoint holds more pending downdates than this filter defers")
        us = [state.get(f"kalman/pending_u{i}") for i in range(len(self.blocks) if k else 0)]
        for i, (u, b) in enumerate(zip(us, self.blocks)):
            if u is None or np.shape(u) != (b.size, k):
                raise ValueError(f"checkpoint kalman/pending_u{i} is not ({b.size}, {k})")
        self.p_mats = [p if _HANDED_OVER.pop(id(p), None) is p
                       else self._block(p.shape[0], np.asarray(p)) for p in blocks]
        self.pending = k
        self.pend_beta[:, :k] = beta
        for dst, u in zip(self.pend_u, us):
            dst[:, :k] = u

    def checksum(self) -> float:
        """Cheap fingerprint for replica-consistency assertions."""
        total = sum(c * self._trace(i) for i, c in enumerate(self.p_scales))
        return float(total) + self.lam
