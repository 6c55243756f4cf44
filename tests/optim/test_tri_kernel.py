"""The hand-written P.G kernel, its build cache, and the batched update.

Bit rule: every column of ``P_stored G`` gets the same bits whatever the
column count, so ``KalmanState.update_many`` gives the bits of one
``update`` per item, and ``FEKF.step_batch`` those of the hand-driven
per-update step (the benchmark's ``trace.hand_step_bit_identical``).
"""

import ctypes
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.autograd.instrument import KernelCounter
from repro.model import DeePMD, make_batch
from repro.optim import FEKF, RLEKF, KalmanConfig, KalmanState
from repro.optim import kalman as kalman_mod
from repro.optim import tri_kernel
from repro.optim.blocks import shard_blocks
from repro.optim.kalman import FLUSH_EVERY, _tri_pg, _triangle_block
from repro.telemetry.profile import estimate_flops

SIZES = [1, 2, 7, 8, 9, 33, 1350, 2051]


def _sym(n, seed=0):
    """A dense symmetric n x n matrix and its triangle block."""
    a = np.random.default_rng(seed).normal(size=(n, n))
    a = a + a.T
    return a, _triangle_block(n, np.asfortranarray(a))


def _cols(g, width):
    """``g``'s columns in an F-ordered n x ``width`` array, zero-padded."""
    out = np.zeros((g.shape[0], width), order="F")
    out[:, : g.shape[1]] = g
    return out


class TestKernel:
    @pytest.mark.parametrize("n", SIZES)
    def test_columns_do_not_depend_on_the_column_count(self, n):
        _, p = _sym(n)
        g = np.random.default_rng(1).normal(size=(n, 4))
        alone = [_tri_pg(p, _cols(g[:, [c]], 1))[:, 0] for c in range(4)]
        for m in range(1, 5):
            y = _tri_pg(p, _cols(g[:, :m], 1 if m == 1 else 4))
            for c in range(m):
                assert y[:, c].tobytes() == alone[c].tobytes(), (m, c)
            assert not y[:, m:].any()  # the zero padding stays zero

    @pytest.mark.parametrize("n", SIZES)
    def test_matches_the_dense_product(self, n):
        a, p = _sym(n, seed=2)
        g = np.random.default_rng(3).normal(size=(n, 4))
        for m in (1, 4):
            y, ref = _tri_pg(p, _cols(g[:, :m], m)), a @ g[:, :m]
            assert np.abs(y - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_reads_only_the_upper_triangle(self):
        a, p = _sym(37, seed=4)
        g = np.asfortranarray(np.random.default_rng(5).normal(size=(37, 4)))
        square = np.asfortranarray(a)
        square[np.tril_indices(37, -1)] = np.nan  # never read
        assert _tri_pg(square, g).tobytes() == _tri_pg(p, g).tobytes()

    def test_more_than_four_columns_take_one_pass_per_four(self):
        _, p = _sym(33)
        g = np.random.default_rng(6).normal(size=(33, 8))
        y = _tri_pg(p, _cols(g, 8))
        for c in range(8):
            assert y[:, c].tobytes() == _tri_pg(p, _cols(g[:, [c]], 1))[:, 0].tobytes()

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_other_column_counts_are_refused(self, m):
        _, p = _sym(9)
        with pytest.raises(ValueError, match="columns"):
            _tri_pg(p, np.zeros((9, m), order="F"))

    def test_a_generic_build_gives_the_same_bits(self, tmp_path, monkeypatch):
        """Another vector width (the baseline x86-64 SSE2 build, where the
        host has wider vectors) cannot change a bit: nothing is reordered
        or fused."""
        if os.uname().machine != "x86_64":
            pytest.skip("the generic build is x86-64's")
        flags = tuple("-march=x86-64" if f == "-march=native" else f for f in tri_kernel.FLAGS)
        monkeypatch.setattr(tri_kernel, "FLAGS", flags)
        generic = _bind(tri_kernel.build(tmp_path))
        for n in (9, 1350):
            _, p = _sym(n, seed=7)
            g = _cols(np.random.default_rng(8).normal(size=(n, 4)), 4)
            for m, gm in ((4, g), (1, np.asfortranarray(g[:, :1]))):
                y = np.empty((n, m), order="F")
                generic(n, p.ctypes.data, gm.ctypes.data, y.ctypes.data, m)
                assert y.tobytes() == _tri_pg(p, gm).tobytes(), (n, m)


def _bind(path):
    fn = ctypes.CDLL(str(path)).tri_pg
    fn.restype = None
    fn.argtypes = [ctypes.c_int, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int]
    return fn


class TestBuildCache:
    def test_same_key_reuses_the_library(self, tmp_path, monkeypatch):
        first = tri_kernel.build(tmp_path)
        calls = []
        real = subprocess.run
        monkeypatch.setattr(tri_kernel.subprocess, "run",
                            lambda cmd, **kw: calls.append(cmd) or real(cmd, **kw))
        assert tri_kernel.build(tmp_path) == first
        assert all("-o" not in cmd for cmd in calls)  # nothing compiled
        assert [p.name for p in tmp_path.iterdir()] == [first.name]  # no temporaries

    def test_a_key_mismatch_is_never_loaded(self, tmp_path, monkeypatch):
        first = tri_kernel.build(tmp_path)
        # an entry of another key, which would not even load
        stale = tmp_path / f"tri_kernel-{'0' * 64}.so"
        stale.write_bytes(b"not a library")
        edited = tmp_path / "src" / "tri_kernel.c"
        edited.parent.mkdir()
        edited.write_text(tri_kernel.SOURCE.read_text() + "\n/* edited */\n")
        monkeypatch.setattr(tri_kernel, "SOURCE", edited)
        by_source = tri_kernel.build(tmp_path)
        monkeypatch.setattr(tri_kernel, "_host_cpu", lambda: "another CPU")
        by_cpu = tri_kernel.build(tmp_path)
        monkeypatch.setattr(tri_kernel, "_compiler_version", lambda: "another compiler")
        by_compiler = tri_kernel.build(tmp_path)
        paths = {first, by_source, by_cpu, by_compiler}
        assert len(paths) == 4 and stale not in paths
        for path in paths:
            _bind(path)  # each one a complete library

    def test_two_processes_building_at_once_both_load(self, tmp_path):
        script = textwrap.dedent(f"""
            import ctypes, pathlib, sys
            import numpy as np
            from repro.optim import tri_kernel
            fn = ctypes.CDLL(str(tri_kernel.build(pathlib.Path({str(tmp_path)!r})))).tri_pg
            fn.restype = None
            fn.argtypes = [ctypes.c_int, ctypes.c_void_p, ctypes.c_void_p,
                           ctypes.c_void_p, ctypes.c_int]
            p = np.asfortranarray(np.diag(np.arange(1.0, 6.0)))
            g = np.ones((5, 1), order="F")
            y = np.empty((5, 1), order="F")
            fn(5, p.ctypes.data, g.ctypes.data, y.ctypes.data, 1)
            print(y[:, 0].tolist())
        """)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        procs = [
            subprocess.Popen([sys.executable, "-c", script], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for _ in range(2)
        ]
        outs = [proc.communicate(timeout=120) for proc in procs]
        for proc, (out, err) in zip(procs, outs):
            assert proc.returncode == 0, err
            assert out.split("\n")[0] == "[1.0, 2.0, 3.0, 4.0, 5.0]"
        assert len(list(tmp_path.iterdir())) == 1  # one library, no temporaries

    def test_cache_dir_follows_xdg(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert tri_kernel.cache_dir() == tmp_path / "repro"
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setenv("HOME", str(tmp_path))
        assert tri_kernel.cache_dir() == tmp_path / ".cache" / "repro"


@pytest.fixture()
def unbound():
    """The kernels unbound for the test (and rebound after it)."""
    kalman_mod.bind_kernels.cache_clear()
    tri_kernel.load.cache_clear()
    yield
    kalman_mod.bind_kernels.cache_clear()
    tri_kernel.load.cache_clear()


def test_a_missing_compiler_fails_loudly_and_names_it(tmp_path, monkeypatch, unbound):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))  # nothing cached
    monkeypatch.setattr(tri_kernel, "CC", "no-such-cc-on-this-path")
    with pytest.raises(RuntimeError, match="no-such-cc-on-this-path"):
        tri_kernel.build(tmp_path)
    with pytest.raises(RuntimeError, match="C compiler.*no-such-cc-on-this-path"):
        KalmanState(60, [(0, 12), (1, 40), (2, 8)], KalmanConfig(blocksize=32))
    assert not any(tmp_path.rglob("*.so"))


# ----------------------------------------------------------------------
# the batched update
# ----------------------------------------------------------------------
LAYERS = [(0, 12), (1, 40), (2, 8)]
N = 60


def _pair(coupled=False, lanes=1, **kw):
    """Two equal filters: the per-update one on one lane, the batched one
    on ``lanes``."""
    cfg = KalmanConfig(blocksize=32, coupled_gain=coupled, **kw)
    one, batched = KalmanState(N, LAYERS, cfg), KalmanState(N, LAYERS, cfg)
    one.lanes = [list(range(len(one.blocks)))]
    batched.lanes = shard_blocks(batched.blocks, lanes)
    return one, batched


def _grads(r, n, big=False):
    return [(r.normal(size=N) * (2.0 if big else 1e-3), 0.3 if k % 2 else -0.2)
            for k in range(n)]


def _assert_same(one, batched):
    assert one.checksum() == batched.checksum()
    assert (one.pending, one.updates, one.lam) == (batched.pending, batched.updates, batched.lam)
    assert one.p_scales == batched.p_scales
    for a, b in zip(one.p_mats, batched.p_mats):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(one.pend_u, batched.pend_u):
        assert a.tobytes() == b.tobytes()
    assert one.pend_beta.tobytes() == batched.pend_beta.tobytes()


class _LaunchLog(KernelCounter):
    """A kernel counter that keeps each launch's name and output shape."""

    def __init__(self):
        super().__init__()
        self.log = []

    def record(self, op_name, nbytes=0, out_shape=None, in_shapes=None):
        super().record(op_name, nbytes, out_shape, in_shapes)
        self.log.append((op_name, out_shape))


class TestUpdateMany:
    @pytest.mark.parametrize("lanes", [1, 2])
    @pytest.mark.parametrize("coupled", [False, True])
    def test_same_bits_as_one_update_per_item(self, coupled, lanes, monkeypatch):
        one, batched = _pair(coupled, lanes)
        assert len(batched.lanes) == lanes
        rescales = []
        real = KalmanState._rescale
        monkeypatch.setattr(KalmanState, "_rescale",
                            lambda s, i, f: rescales.append(i) or real(s, i, f))
        r = np.random.default_rng(9)
        flushes = crossed = 0
        # batches of 1..7 items: windows of 1, padded 2 and 3, 4, and
        # more than 4; tiny gradients first (the 1/lambda wind-up reaches
        # the trace cap), then large ones (the step clip)
        for step, m in enumerate([4, 3, 1, 2, 7, 4, 5, 4, 6, 3, 4, 4, 2, 7, 4, 1, 4]):
            items = _grads(r, m, big=step >= 9)
            crossed += batched.pending + m > FLUSH_EVERY
            expect = [one.update(g, e, 2.0) for g, e in items]
            got = batched.update_many(items, 2.0)
            flushes += batched.pending < m
            assert [d.tobytes() for d in got] == [d.tobytes() for d in expect], step
            _assert_same(one, batched)
        assert flushes >= 3 and crossed >= 2 and rescales

    def test_window_from_pending_18_crosses_the_flush(self):
        one, batched = _pair()
        r = np.random.default_rng(10)
        for g, e in _grads(r, 18):
            one.update(g, e, 2.0)
            batched.update(g, e, 2.0)
        assert batched.pending == 18
        items = _grads(r, 4, big=True)
        with _LaunchLog() as log:
            got = batched.update_many(items, 2.0)
        expect = [one.update(g, e, 2.0) for g, e in items]
        assert [d.tobytes() for d in got] == [d.tobytes() for d in expect]
        _assert_same(one, batched)
        assert batched.pending == 2
        # a pass of 2 before the flush, a flush, a pass of 2 after it
        n_blocks = len(batched.blocks)
        passes = [shape for op, shape in log.log if op == "p_symv_fused"]
        assert passes == [(b.size, 2) for b in batched.blocks] * 2
        assert [op for op, _ in log.log].count("p_update_fused") == n_blocks

    def test_empty_and_misshapen(self):
        _, batched = _pair()
        assert batched.update_many([], 1.0) == []
        with pytest.raises(ValueError, match="gradient shape"):
            batched.update_many([(np.zeros(N), 0.1), (np.zeros(N + 1), 0.1)], 1.0)
        assert batched.updates == 0


# ----------------------------------------------------------------------
# the optimizers against the hand-driven step
# ----------------------------------------------------------------------
def _hand_step(opt, batch):
    """One FEKF step from its public pieces, one ``update`` per group --
    the benchmark's traced hand step, without its spans."""
    worker, kalman = opt.worker, opt.kalman
    scale = float(np.sqrt(batch.batch_size))
    g, abe = worker.energy_gradient(batch)
    opt.apply_increment(kalman.update(g, abe, scale))
    f_pred, params = worker.force_graph(batch)
    for group in opt.force_groups(batch.n_atoms):
        g, abe = worker.force_group_gradient(f_pred, params, batch, group)
        opt.apply_increment(kalman.update(g, abe, scale))
    opt.step_count += 1


@pytest.mark.parametrize("cls, bs", [(FEKF, 4), (RLEKF, 1)])
def test_step_batch_matches_the_hand_driven_step(cu_dataset, small_cfg, cls, bs):
    n = len(cu_dataset)
    batches = [make_batch(cu_dataset, (np.arange(bs) + 3 * k) % n, small_cfg) for k in range(6)]
    runs = []
    for drive in (_hand_step, cls.step_batch):
        model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        opt = cls(model, KalmanConfig(blocksize=512), seed=3)
        for batch in batches:  # 30 updates: through a flush
            drive(opt, batch)
        runs.append(opt)
    hand, stepped = runs
    assert hand.kalman.updates == 30 > FLUSH_EVERY
    assert hand.model.params.flatten().tobytes() == stepped.model.params.flatten().tobytes()
    assert hand.kalman.checksum() == stepped.kalman.checksum()
    sd_hand, sd_step = hand.state_dict(), stepped.state_dict()
    assert sd_hand.keys() == sd_step.keys()
    for key in sd_hand:
        assert np.array_equal(sd_hand[key], sd_step[key]), key


def test_step_records_one_pass_per_block_for_the_four_force_updates(cu_model, cu_batch):
    opt = FEKF(cu_model, KalmanConfig(blocksize=512), seed=3)
    with _LaunchLog() as log:
        opt.step_batch(cu_batch)
    passes = [shape for op, shape in log.log if op == "p_symv_fused"]
    sizes = [b.size for b in opt.kalman.blocks]
    assert passes == [(n,) for n in sizes] + [(n, 4) for n in sizes]
    n, k = sizes[0], 1
    assert estimate_flops("p_symv_fused", (n, 4), ((n, n), (n, k))) == (
        2 * 4 * n * n + 4 * 4 * n * k
    )
