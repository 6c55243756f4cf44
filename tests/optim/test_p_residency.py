"""Fused P residency: only the upper triangle of a block is resident.

The fused backend reads and writes only the upper triangle of each P
block, so each block maps just the pages that hold it (see
``kalman._triangle_block``).  These tests bound every fused block's own
resident bytes -- after construction, after updates whose flushes run
``dsyrk`` with both signs, after ``clone()`` and after a state round trip
-- between the triangle and the triangle plus one page per column, and
check against the square ``np.eye`` layout that the results are the same
bits.
"""

import mmap
import multiprocessing
from types import SimpleNamespace

import numpy as np
import pytest

from repro.model import make_batch
from repro.optim import (
    FEKF,
    KalmanConfig,
    KalmanState,
    NaiveEKF,
    checkpoint,
    load_state,
    make_optimizer,
    save_state,
)
from repro.optim.kalman import FLUSH_EVERY

N = 4096


def _fused(n=N):
    cfg = KalmanConfig(blocksize=n, p_trace_cap=np.inf)
    return KalmanState(n, [(0, n)], cfg)


def _indefinite(state):
    """P = -I, written on the diagonal only: large gradients then get
    negative gains, tiny ones positive (mixed ``dsyrk`` signs)."""
    for p in state.p_mats:
        p[np.diag_indices(p.shape[0])] = -1.0


def _gradients(count, n=N, seed=5):
    r = np.random.default_rng(seed)
    return [r.normal(size=n) * (1.0 if j % 3 else 1e-3) for j in range(count)]


def _assert_triangle_resident(state, resident_bytes):
    for p in state.p_mats:
        n = p.shape[0]
        tri = n * (n + 1) // 2 * 8
        own = resident_bytes(p)
        assert tri <= own <= tri + n * mmap.PAGESIZE, (n, own, tri)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestResidency:
    def test_built_block_holds_the_triangle(self, resident_bytes):
        state = _fused()
        _assert_triangle_resident(state, resident_bytes)
        p = state.p_mats[0]
        assert p.flags.f_contiguous and p.flags.writeable
        assert np.array_equal(p, np.eye(N))  # the lower triangle reads 0.0
        _assert_triangle_resident(state, resident_bytes)  # reading maps nothing

    def test_updates_flushes_clone_and_round_trip(self, resident_bytes):
        state = _fused()
        _indefinite(state)
        signs = set()
        for g in _gradients(2 * FLUSH_EVERY + 5):
            state.update(g, 0.3, 1.0)
            signs |= set(np.sign(state.pend_beta[:, : state.pending]).ravel())
        assert state.updates == 45 and state.pending == 5
        assert signs == {-1.0, 1.0}  # both dsyrk signs flushed
        _assert_triangle_resident(state, resident_bytes)

        twin = state.clone()
        _assert_triangle_resident(twin, resident_bytes)
        assert twin.checksum() == state.checksum()

        snap = state.p_state()
        restored = _fused()
        restored.load_p_state(snap)
        _assert_triangle_resident(restored, resident_bytes)
        assert resident_bytes(snap["kalman/p0"]) <= resident_bytes(state.p_mats[0])
        assert not np.shares_memory(restored.p_mats[0], snap["kalman/p0"])
        assert np.array_equal(restored.p_mats[0], state.p_mats[0])
        assert restored.pending == state.pending
        assert np.array_equal(restored.pend_u[0][:, :5], state.pend_u[0][:, :5])

    @pytest.mark.parametrize("via", ["state_dict", "file"])
    def test_fekf_state_dict_round_trip(
        self, resident_bytes, cu_model, cu_dataset, small_cfg, tmp_path, monkeypatch, via
    ):
        """A state dict or a checkpoint file: the restored blocks, and
        the blocks a load reads the file into, hold the triangle only."""
        opt = FEKF(cu_model, KalmanConfig(blocksize=1024))
        opt.step_batch(make_batch(cu_dataset, np.arange(2), small_cfg))
        other = FEKF(cu_model, KalmanConfig(blocksize=1024))
        if via == "state_dict":
            other.load_state_dict(opt.state_dict())
        else:
            read = []
            inner = checkpoint.unfilled_triangle_block
            monkeypatch.setattr(
                checkpoint, "unfilled_triangle_block", lambda n: read.append(inner(n)) or read[-1]
            )
            save_state(str(tmp_path / "ck"), cu_model, opt)
            load_state(str(tmp_path / "ck"), cu_model, other)
            assert len(read) == len(opt.kalman.blocks)
            _assert_triangle_resident(SimpleNamespace(p_mats=read), resident_bytes)
        for state in (opt.kalman, other.kalman):
            _assert_triangle_resident(state, resident_bytes)
        assert other.kalman.checksum() == opt.kalman.checksum()

    def test_forked_rank_writes_its_own_copy(self):
        """Private, not shared: a forked rank's writes stay in the rank."""
        state = _fused(256)
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=state.p_mats[0].__setitem__, args=((0, 0), 7.0))
        child.start()
        child.join()
        assert child.exitcode == 0
        assert state.p_mats[0][0, 0] == 1.0


class TestDefaultIsTheTriangleFilter:
    """No argument selects the P update: the default optimizers build the
    deferred triangle filter."""

    @pytest.mark.parametrize("build", ["FEKF", "make_optimizer", "NaiveEKF"])
    def test_default_filter_defers_and_holds_the_triangle(
        self, resident_bytes, cu_model, cu_dataset, small_cfg, build
    ):
        opt = {
            "FEKF": lambda: FEKF(cu_model),
            "make_optimizer": lambda: make_optimizer("fekf", cu_model),
            "NaiveEKF": lambda: NaiveEKF(cu_model),
        }[build]()
        opt.step_batch(make_batch(cu_dataset, np.arange(2), small_cfg))
        states = getattr(opt, "_replicas", None) or [opt.kalman]
        for state in states:
            assert type(state) is KalmanState and state.pending == 5
            _assert_triangle_resident(state, resident_bytes)


class TestByteIdentity:
    """The same update sequence against the square ``np.eye`` layout."""

    def test_same_bits_as_the_square_layout(self):
        state, oracle = _fused(), _fused()
        oracle.p_mats = [np.eye(p.shape[0], order="F") for p in oracle.p_mats]
        for s in (state, oracle):
            _indefinite(s)
        for g in _gradients(2 * FLUSH_EVERY + 5):
            assert np.array_equal(_bits(state.update(g, 0.3, 1.0)),
                                  _bits(oracle.update(g, 0.3, 1.0)))
            assert state.checksum() == oracle.checksum()
        assert np.array_equal(_bits(state.p_dense(0)), _bits(oracle.p_dense(0)))
        mine, theirs = state.p_state(), oracle.p_state()
        assert mine.keys() == theirs.keys()
        for key in mine:
            assert mine[key].shape == theirs[key].shape, key
            assert mine[key].flags.f_contiguous == theirs[key].flags.f_contiguous
            assert np.array_equal(_bits(mine[key]), _bits(theirs[key])), key


@pytest.mark.parametrize("n", [1, 7, 511, 513])
def test_small_blocks_copy_the_triangle_exactly(n):
    """Blocks narrower than a page: the copy is the upper triangle, the
    rest reads 0.0 even when the source's lower triangle does not."""
    src = np.asfortranarray(np.random.default_rng(n).normal(size=(n, n)))
    state = _fused(n)
    state.load_p_state({"kalman/p0": src, "kalman/pending_beta": np.zeros((1, 0))})
    assert np.array_equal(state.p_mats[0], np.triu(src))
