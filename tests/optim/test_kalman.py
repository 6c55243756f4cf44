"""Kalman core: kernel equivalence, algebraic invariants, guards, lanes."""

import ctypes
import gc
import multiprocessing
import sys
import threading

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import blas, cython_blas

from repro.autograd.instrument import KernelCounter
from repro.model import DeePMD, make_batch
from repro.optim import FEKF, KalmanConfig, KalmanState
from repro.optim import ekf as ekf_mod
from repro.optim import lanes as lanes_mod
from repro.optim.blocks import shard_blocks
from repro.optim.kalman import FLUSH_EVERY
from repro.perf import OPT1, OPT3
from repro.perf.presets import DenseKalmanState

LAYERS = [(0, 12), (1, 40), (2, 8)]
N = 60


def _state(dense=False, **kw):
    """The filter (``dense``: Figure 7's framework-style one, the oracle)."""
    cfg = KalmanConfig(blocksize=kw.pop("blocksize", 32), **kw)
    return (DenseKalmanState if dense else KalmanState)(N, LAYERS, cfg)


rng = np.random.default_rng(0)


class TestUpdateAlgebra:
    def test_gradient_shape_checked(self):
        with pytest.raises(ValueError):
            _state().update(np.zeros(N + 1), 0.1, 1.0)

    def test_update_moves_along_pg(self):
        state = _state(max_step_norm=np.inf)
        g = rng.normal(size=N)
        dw = state.update(g, 0.5, 1.0)
        # with P=I initially: dw_i = 0.5 * g_i / (lam + |g_i|^2) per block
        for i, blk in enumerate(state.blocks):
            gb = g[blk.slice()]
            expect = 0.5 * gb / (0.98 + gb @ gb)
            assert np.allclose(dw[blk.slice()], expect)

    def test_scale_multiplies_increment(self):
        g = rng.normal(size=N) * 0.1
        s1 = _state(max_step_norm=np.inf)
        s2 = _state(max_step_norm=np.inf)
        dw1 = s1.update(g, 0.2, 1.0)
        dw2 = s2.update(g, 0.2, 4.0)
        assert np.allclose(dw2, 4.0 * dw1)

    def test_zero_error_zero_increment_but_p_updates(self):
        state = _state()
        g = rng.normal(size=N)
        before = state.checksum()
        dw = state.update(g, 0.0, 1.0)
        assert np.allclose(dw, 0.0)
        assert state.checksum() != before

    def test_lambda_schedule(self):
        state = _state()
        lam0, nu = state.cfg.lambda0, state.cfg.nu
        state.update(np.zeros(N), 0.0, 1.0)
        assert state.lam == pytest.approx(lam0 * nu + 1 - nu)
        for _ in range(3000):
            state.advance_lambda()
        assert state.lam == pytest.approx(1.0, abs=1e-3)

    def test_p_stays_symmetric_naive(self):
        state = _state(dense=True, max_step_norm=np.inf)
        for _ in range(10):
            state.update(rng.normal(size=N), 0.1, 1.0)
        for p in state.p_mats:  # the dense filter stores the whole square
            assert np.allclose(p, p.T)

    def test_p_stays_positive_definite(self):
        state = _state()
        for _ in range(30):
            state.update(rng.normal(size=N) * 0.5, 0.1, 1.0)
        for i in range(len(state.blocks)):
            eig = np.linalg.eigvalsh(state.p_dense(i))
            assert eig.min() > 0

    def test_update_counter(self):
        state = _state()
        for _ in range(4):
            state.update(np.zeros(N), 0.0, 1.0)
        assert state.updates == 4


class TestFusedEquivalence:
    @pytest.mark.parametrize("coupled", [False, True])
    def test_fused_matches_naive(self, coupled):
        sn = _state(dense=True, coupled_gain=coupled, max_step_norm=np.inf)
        sf = _state(coupled_gain=coupled, max_step_norm=np.inf)
        for step in range(25):
            g = rng.normal(size=N) * 0.3
            dwn = sn.update(g, 0.1, 1.0)
            dwf = sf.update(g, 0.1, 1.0)
            assert np.allclose(dwn, dwf, atol=1e-11), step
        for i in range(len(sn.blocks)):
            assert np.allclose(sn.p_dense(i), sf.p_dense(i), atol=1e-10)

    def test_fused_with_guards_matches_naive(self):
        sn = _state(dense=True)
        sf = _state()
        for _ in range(40):
            g = rng.normal(size=N) * 2.0  # large grads exercise the guards
            assert np.allclose(sn.update(g, 0.5, 2.0), sf.update(g, 0.5, 2.0), atol=1e-10)

    def test_coupled_vs_layerwise_differ(self):
        s1 = _state(coupled_gain=False, max_step_norm=np.inf)
        s2 = _state(coupled_gain=True, max_step_norm=np.inf)
        g = rng.normal(size=N)
        assert not np.allclose(s1.update(g, 0.5, 1.0), s2.update(g, 0.5, 1.0))


class EagerFused:
    """The oracle for the deferred downdate: the fused kernel as it was
    before deferral -- ``dsymv`` for P g, then one in-place ``dsyr`` per
    update and block -- written out independently of ``KalmanState``.
    Starts from a copy of ``state``'s blocks (nothing may be pending)."""

    def __init__(self, state: KalmanState):
        assert state.fused and state.pending == 0
        self.cfg, self.blocks = state.cfg, state.blocks
        self.p = [p.copy(order="F") for p in state.p_mats]
        self.c = list(state.p_scales)
        self.lam = state.lam

    def update(self, g_flat, error, scale):
        gs = [g_flat[b.slice()] for b in self.blocks]
        pgs = [blas.dsymv(c, p, g, lower=0) for c, p, g in zip(self.c, self.p, gs)]
        quads = [float(g @ pg) for g, pg in zip(gs, pgs)]
        if self.cfg.coupled_gain:
            gains = [1.0 / (self.lam + sum(quads))] * len(quads)
        else:
            gains = [1.0 / (self.lam + q) for q in quads]
        dw = np.zeros(g_flat.shape)
        for i, (b, pg, a) in enumerate(zip(self.blocks, pgs, gains)):
            self.p[i] = blas.dsyr(-a / self.c[i], pg, a=self.p[i], lower=0, overwrite_a=1)
            self.c[i] /= self.lam
            dw[b.slice()] = (scale * error * a) * pg
        for i, p in enumerate(self.p):  # anti-windup
            mean_diag = self.c[i] * np.trace(p) / p.shape[0]
            if mean_diag > self.cfg.p_trace_cap:
                self.c[i] *= self.cfg.p_trace_cap / mean_diag
        self.lam = self.lam * self.cfg.nu + 1.0 - self.cfg.nu
        norm = float(np.linalg.norm(dw))
        if norm > self.cfg.max_step_norm:
            dw *= self.cfg.max_step_norm / norm
        return dw

    def p_dense(self, i):
        return self.c[i] * (np.triu(self.p[i]) + np.triu(self.p[i], 1).T)

    def checksum(self):
        return float(sum(c * np.trace(p) for c, p in zip(self.c, self.p))) + self.lam


def _mixed_gradients(n_updates, seed=3):
    """Gradients that exercise both guards: a long run of tiny ones lets
    the 1/lambda wind-up reach the trace cap (0.98^-35 > 2), then bursts
    of large ones hit the step clip."""
    r = np.random.default_rng(seed)
    return [
        r.normal(size=N) * (2.0 if j >= 40 and (j // 6) % 2 else 1e-3)
        for j in range(n_updates)
    ]


class TestDeferredDowndate:
    """The fused backend parks each rank-1 downdate and applies
    FLUSH_EVERY of them in one rank-k pass; an eager per-update ``dsyr``
    (``EagerFused``) is the oracle for everything observable."""

    def test_flush_constant_clears_the_profiled_steps(self):
        # the profiler reconciliation test counts kernels on a fresh
        # optimizer's first step, ``harness figure7`` on its second (5
        # updates each): no flush may land inside either
        assert FLUSH_EVERY > 10

    @pytest.mark.parametrize("coupled", [False, True])
    def test_matches_eager_oracle(self, coupled):
        sf = _state(coupled_gain=coupled)
        sn = _state(dense=True, coupled_gain=coupled)
        oracle = EagerFused(sf)
        flushes = 0
        for j, g in enumerate(_mixed_gradients(3 * FLUSH_EVERY + 4)):
            dwo = oracle.update(g, 0.3, 2.0)
            dwf = sf.update(g, 0.3, 2.0)
            dwn = sn.update(g, 0.3, 2.0)
            flushes += sf.pending == 0
            np.testing.assert_allclose(dwf, dwo, rtol=1e-12, atol=1e-15, err_msg=str(j))
            assert np.allclose(dwf, dwn, atol=1e-10), j
            assert sf.checksum() == pytest.approx(oracle.checksum(), rel=1e-12)
            for i in range(len(sf.blocks)):
                np.testing.assert_allclose(
                    sf.p_dense(i), oracle.p_dense(i), rtol=1e-12, atol=1e-14
                )
        assert flushes == 3 and sf.pending == 4
        for i in range(len(sf.blocks)):
            assert np.allclose(sf.p_dense(i), sn.p_dense(i), atol=1e-10)

    def test_oracle_run_activates_both_guards(self):
        """The sequence above is only an oracle for the guards if they
        fire: the same gradients with the guards off end elsewhere."""
        guarded, free = (
            _state(),
            _state(p_trace_cap=np.inf, max_step_norm=np.inf),
        )
        clipped = 0
        for g in _mixed_gradients(3 * FLUSH_EVERY + 4):
            dw = guarded.update(g, 0.3, 2.0)
            clipped += not np.allclose(dw, free.update(g, 0.3, 2.0))
        assert clipped > 0
        assert max(guarded.p_scales) < max(free.p_scales)  # the cap rescaled

    def test_negative_gain_flushes_like_eager(self):
        """A block that lost definiteness gives a = 1/(lambda + g.Pg) < 0;
        the rank-k pass must apply that pair with its sign, as
        ``dsyr(-a/c, ...)`` did (no sqrt(beta) on a negative beta)."""
        sf = _state(p_trace_cap=np.inf, max_step_norm=np.inf)
        sf.p_mats[1][:] = -np.eye(sf.blocks[1].size)  # indefinite on purpose
        oracle = EagerFused(sf)
        r = np.random.default_rng(11)
        saw_negative = False
        for _ in range(FLUSH_EVERY):
            g = r.normal(size=N)
            saw_negative |= bool((sf.pend_beta[:, : sf.pending] < 0).any())
            np.testing.assert_allclose(
                sf.update(g, 0.2, 1.0), oracle.update(g, 0.2, 1.0), rtol=1e-10
            )
        assert saw_negative and sf.pending == 0  # flushed, signs mixed
        for i in range(len(sf.blocks)):
            np.testing.assert_allclose(
                sf.p_dense(i), oracle.p_dense(i), rtol=1e-10, atol=1e-12
            )
            # nothing pending: the stored triangle itself is the eager one
            np.testing.assert_allclose(
                np.triu(sf.p_mats[i]), np.triu(oracle.p[i]), rtol=1e-10, atol=1e-12
            )

    def test_flush_is_in_place_and_memory_is_flat(self):
        state = _state()
        blocks_before = list(state.p_mats)
        expect = (
            sum(b.size**2 * 8 for b in state.blocks)
            + sum(b.size * FLUSH_EVERY * 8 for b in state.blocks)
            + len(state.blocks) * FLUSH_EVERY * 8
        )
        assert state.p_memory_bytes() == expect
        for j in range(FLUSH_EVERY):
            assert state.pending == j
            state.update(rng.normal(size=N), 0.1, 1.0)
            assert state.p_memory_bytes() == expect
        assert state.pending == 0  # the FLUSH_EVERY-th update flushed
        for before, after in zip(blocks_before, state.p_mats):
            assert np.shares_memory(before, after)
            assert after.flags.f_contiguous

    def test_stored_triangle_untouched_between_flushes(self):
        """Per update only the pending buffers change -- the point of the
        deferral (no pass over P) -- and observers do not flush."""
        state = _state()
        stored = [p.copy() for p in state.p_mats]
        for _ in range(FLUSH_EVERY - 1):
            state.update(rng.normal(size=N), 0.1, 1.0)
            state.checksum(), state.p_dense(0), state.clone(), state.p_memory_bytes()
        assert state.pending == FLUSH_EVERY - 1
        for before, now in zip(stored, state.p_mats):
            assert np.array_equal(before, now)
        state.update(rng.normal(size=N), 0.1, 1.0)
        assert not np.array_equal(stored[1], state.p_mats[1])

    def test_clone_mid_window_stays_checksum_equal(self):
        state = _state()
        grads = _mixed_gradients(2 * FLUSH_EVERY)
        for g in grads[:7]:
            state.update(g, 0.3, 2.0)
        twin = state.clone()
        assert twin.pending == 7 and twin.checksum() == state.checksum()
        for g in grads[7:]:  # through two flushes
            assert np.array_equal(state.update(g, 0.3, 2.0), twin.update(g, 0.3, 2.0))
            assert twin.checksum() == state.checksum()
        # deep copy: the twin's buffers are its own
        assert not any(
            np.shares_memory(a, b) for a, b in zip(state.pend_u, twin.pend_u)
        )


class TestGuards:
    def test_step_norm_clipped(self):
        state = _state(max_step_norm=0.05)
        dw = state.update(rng.normal(size=N) * 3.0, 10.0, 8.0)
        assert np.linalg.norm(dw) <= 0.05 + 1e-12

    def test_trace_cap_bounds_p_growth(self):
        state = _state(p_trace_cap=2.0)
        for _ in range(500):
            state.update(rng.normal(size=N) * 1e-3, 0.01, 1.0)
        for i, p in enumerate(state.p_mats):
            mean_diag = state.p_scales[i] * np.trace(p) / p.shape[0]
            assert mean_diag <= 2.0 + 1e-9

    def test_unguarded_p_grows(self):
        state = _state(p_trace_cap=np.inf, max_step_norm=np.inf)
        for _ in range(200):
            state.update(rng.normal(size=N) * 1e-4, 0.0, 1.0)
        mean_diag = np.trace(state.p_dense(0)) / state.blocks[0].size
        assert mean_diag > 10.0  # 1/lambda wind-up, the failure mode we guard


class TestLifecycle:
    def test_clone_independent(self):
        state = _state()
        other = state.clone()
        state.update(rng.normal(size=N), 0.5, 1.0)
        assert other.checksum() != state.checksum()

    def test_checksum_stable_for_identical_sequences(self):
        a, b = _state(), _state()
        for _ in range(5):
            g = rng.normal(size=N)
            a.update(g, 0.1, 1.0)
            b.update(g, 0.1, 1.0)
        assert a.checksum() == b.checksum()

    def test_p_memory_bytes(self):
        state = _state(dense=True)  # naive backend: blocks only
        expect = sum(b.size**2 * 8 for b in state.blocks)
        assert state.p_memory_bytes() == expect

    def test_for_batch_size_guidance(self):
        small = KalmanConfig.for_batch_size(32)
        large = KalmanConfig.for_batch_size(2048)
        assert (small.lambda0, small.nu) == (0.98, 0.9987)
        assert (large.lambda0, large.nu) == (0.90, 0.996)

    def test_for_batch_size_overrides(self):
        cfg = KalmanConfig.for_batch_size(8, blocksize=128, coupled_gain=True)
        assert cfg.blocksize == 128 and cfg.coupled_gain

    def test_for_batch_size_rejects_a_misspelt_field(self):
        with pytest.raises(TypeError, match="blocksze"):
            KalmanConfig.for_batch_size(8, blocksze=512)

    def test_blocks_must_cover_params(self):
        with pytest.raises(ValueError):
            KalmanState(N + 5, LAYERS, KalmanConfig(blocksize=32))

    def test_fused_update_accepts_only_true_and_stores_nothing(self):
        cfg = KalmanConfig(blocksize=32, fused_update=True)
        assert "fused_update" not in vars(cfg) and cfg == KalmanConfig(blocksize=32)
        assert KalmanConfig(**vars(cfg)) == cfg
        with pytest.raises(ValueError, match="DenseKalmanState"):
            KalmanConfig(fused_update=False)
        with pytest.raises(ValueError, match="DenseKalmanState"):
            replace(cfg, fused_update=False)
        with pytest.raises(ValueError, match="DenseKalmanState"):
            KalmanConfig.for_batch_size(8, fused_update=False)

    def test_dense_clone_is_dense(self):
        dense = _state(dense=True)
        for g in _mixed_gradients(3):
            dense.update(g, 0.3, 2.0)
        twin = dense.clone()
        assert type(twin) is DenseKalmanState and not twin.fused
        g = rng.normal(size=N)
        assert np.array_equal(twin.update(g, 0.3, 2.0), dense.update(g, 0.3, 2.0))
        assert twin.checksum() == dense.checksum()


class TestLoadPState:
    """``load_p_state`` checks every shape before it changes anything: a
    malformed checkpoint raises and leaves the filter as it was."""

    @pytest.fixture()
    def snap(self):
        state = _state()
        for g in _mixed_gradients(3):
            state.update(g, 0.3, 2.0)
        assert len(state.blocks) == 4 and state.pending == 3
        return state, state.p_state()

    def _assert_rejected(self, snap, **changes):
        state, good = snap
        bad = {**good, **changes}
        for key, value in changes.items():
            if value is None:
                del bad[key]
        target = _state()
        target.update(rng.normal(size=N), 0.3, 2.0)
        before = (target.checksum(), target.pending, [p.copy() for p in target.p_mats])
        with pytest.raises(ValueError, match="pending"):
            target.load_p_state(bad)
        assert (target.checksum(), target.pending) == before[:2]
        assert all(np.array_equal(a, b) for a, b in zip(before[2], target.p_mats))

    def test_good_snapshot_loads(self, snap):
        state, good = snap
        target = _state()
        target.load_p_state(good)
        target.p_scales, target.lam = list(state.p_scales), state.lam
        assert target.pending == 3 and target.checksum() == state.checksum()

    def test_pending_beta_with_too_few_rows(self, snap):
        self._assert_rejected(snap, **{"kalman/pending_beta": snap[1]["kalman/pending_beta"][:1]})

    def test_misshapen_pending_u(self, snap):
        self._assert_rejected(snap, **{"kalman/pending_u1": snap[1]["kalman/pending_u1"][:, :2]})

    def test_missing_pending_u(self, snap):
        self._assert_rejected(snap, **{"kalman/pending_u2": None})

    def test_p_scales_of_another_block_count(self, cu_model, cu_batch):
        opt = FEKF(cu_model, KalmanConfig(blocksize=1024), seed=3)
        opt.step_batch(cu_batch)
        state = opt.state_dict()
        lam, checksum = opt.kalman.lam, opt.kalman.checksum()
        state["kalman/p_scales"] = state["kalman/p_scales"][:-1]
        state["kalman/lam"] = np.array(0.5)
        with pytest.raises(ValueError, match="p_scales"):
            opt.load_state_dict(state)
        assert (opt.kalman.lam, opt.kalman.checksum()) == (lam, checksum)

    def test_dense_checkpoint_into_the_fused_filter(self, cu_model, cu_batch):
        dense = OPT1.optimizer(cu_model, seed=3, blocksize=1024)
        dense.step_batch(cu_batch)
        state = dense.state_dict()
        assert int(state["kalman/fused"]) == 0
        with pytest.raises(ValueError, match="fused vs dense"):
            FEKF(cu_model, KalmanConfig(blocksize=1024)).load_state_dict(state)


class _LaunchLog(KernelCounter):
    """A kernel counter that also keeps every launch record, in order."""

    def __init__(self):
        super().__init__()
        self.log = []

    def record(self, op_name, nbytes=0, out_shape=None, in_shapes=None):
        super().record(op_name, nbytes, out_shape, in_shapes)
        self.log.append((op_name, int(nbytes), out_shape, in_shapes))


def _update_and_send(state, g, conn):
    conn.send(state.update(g, 0.3, 2.0))


def _step_and_send(opt, batch, conn):
    opt.step_batch(batch)
    conn.send((opt.stats()["force_lanes"], opt.model.params.flatten()))


def _in_forked_child(target, *args):
    """``target(*args, conn)`` in a forked child; what it sent."""
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=target, args=(*args, send))
    child.start()
    try:
        assert recv.poll(60), "a lane step hung in the forked child"
        return recv.recv()
    finally:
        child.kill()
        child.join()


class TestLanes:
    """The per-block passes over P run on one lane per idle core; any
    split of the blocks into lanes gives the one-lane filter bit for bit."""

    @pytest.mark.parametrize("coupled", [False, True])
    @pytest.mark.parametrize("fused", [True, False])
    def test_two_lanes_match_one_bit_for_bit(self, cu_dataset, tiny_cfg, fused, coupled):
        model = DeePMD.for_dataset(cu_dataset, tiny_cfg, seed=1)
        preset = OPT3 if fused else OPT1  # the fused filter, or the dense one
        one, two = (
            preset.optimizer(model, blocksize=64, coupled_gain=coupled) for _ in range(2)
        )
        blocks = one.kalman.blocks
        one.kalman.lanes = [list(range(len(blocks)))]
        two.kalman.lanes = shard_blocks(blocks, 2)
        assert len(blocks) > 4 and all(two.kalman.lanes)
        for opt in (one, two):  # indefinite blocks make some gains negative
            for i in range(1, len(blocks)):
                opt.kalman.p_mats[i][:] = -np.eye(blocks[i].size)
        r = np.random.default_rng(5)
        negative_flushes = 0
        for j in range(3 * FLUSH_EVERY + 4):
            g = r.normal(size=model.num_params) * (0.05 if j % 3 else 1.5)
            error = 0.3 if j % 2 else -0.2
            flushing = two.kalman.pending == FLUSH_EVERY - 1
            with _LaunchLog() as log_one:
                dw_one = one.kalman.update(g, error, 2.0)
            with _LaunchLog() as log_two:
                dw_two = two.kalman.update(g, error, 2.0)
            negative_flushes += flushing and bool((one.kalman.pend_beta < 0).any())
            assert np.array_equal(dw_one, dw_two), j
            assert one.kalman.checksum() == two.kalman.checksum(), j
            assert log_one.log == log_two.log and log_one.log, j
        assert negative_flushes > 0 or not fused
        for p_one, p_two in zip(one.kalman.p_mats, two.kalman.p_mats):
            assert np.array_equal(p_one, p_two)
        sd_one, sd_two = one.state_dict(), two.state_dict()
        assert sd_one.keys() == sd_two.keys()
        for key in sd_one:
            assert np.array_equal(sd_one[key], sd_two[key]), key

    def test_forked_child_rebuilds_the_lane_threads(
        self, monkeypatch, cu_dataset, small_cfg
    ):
        state = _state()
        state.lanes = shard_blocks(state.blocks, 2)
        r = np.random.default_rng(9)
        state.update(r.normal(size=N), 0.3, 2.0)  # the helper thread now exists
        g = r.normal(size=N)
        expect = state.clone().update(g, 0.3, 2.0)
        assert np.array_equal(_in_forked_child(_update_and_send, state, g), expect)

        # the same after the pool has swept force groups: two lanes for
        # the groups, a batch above the size constant
        monkeypatch.setattr(ekf_mod, "lane_count", lambda n: min(n, 2))
        model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        opt = FEKF(model, KalmanConfig(blocksize=1024))
        first, second = (make_batch(cu_dataset, np.arange(8) + k, small_cfg) for k in (0, 8))
        opt.step_batch(first)
        assert opt.stats()["force_lanes"] == 2
        lanes, got = _in_forked_child(_step_and_send, opt, second)
        opt.step_batch(second)
        assert lanes == 2
        assert got.tobytes() == model.params.flatten().tobytes()

    def test_concurrent_filters_share_the_lane_threads(self):
        """Filters updated from several threads at once (member filters
        under the thread executor) queue on the one helper pool; each
        still ends where it ends alone."""
        grads = _mixed_gradients(2 * FLUSH_EVERY + 3)
        alone = _state()
        alone.lanes = [list(range(len(alone.blocks)))]
        expect = [alone.update(g, 0.3, 2.0) for g in grads]
        states = [_state() for _ in range(6)]
        results = [[] for _ in states]

        def drive(state, out):
            state.lanes = shard_blocks(state.blocks, 3)
            out.extend(state.update(g, 0.3, 2.0) for g in grads)

        threads = [
            threading.Thread(target=drive, args=(s, out)) for s, out in zip(states, results)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for state, out in zip(states, results):
            assert len(out) == len(expect)
            assert all(np.array_equal(a, b) for a, b in zip(out, expect))
            assert state.checksum() == alone.checksum()

    @pytest.mark.parametrize("threads, lanes", [(2, 1), (1, 2), (None, 1)])
    def test_lane_count_leaves_the_blas_threads_their_cores(
        self, monkeypatch, threads, lanes
    ):
        monkeypatch.setattr(lanes_mod, "blas_threads", lambda: threads)
        monkeypatch.setattr(lanes_mod.os, "sched_getaffinity", lambda pid: {0, 1})
        state = _state()
        assert len(state.lanes) == lanes
        assert sorted(i for lane in state.lanes for i in lane) == list(
            range(len(state.blocks))
        )

    def test_blas_threads_reads_the_live_count_and_leaves_no_garbage(self):
        """Resolved once, read on every call: a changed thread count
        shows at once, and a call leaves nothing for the cyclic GC (a
        ``CDLL`` per call did)."""
        if lanes_mod.blas_threads() is None:
            pytest.skip("the BLAS behind scipy does not export its thread count")
        set_threads = ctypes.CDLL(cython_blas.__file__).scipy_openblas_set_num_threads
        set_threads.restype, set_threads.argtypes = None, [ctypes.c_int]
        before = lanes_mod.blas_threads()
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            set_threads(1)
            assert lanes_mod.blas_threads() == 1
            set_threads(2)
            assert lanes_mod.blas_threads() == 2
            gc.collect()
            assert gc.garbage == []
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            set_threads(before)
