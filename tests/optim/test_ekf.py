"""EKF optimizers: protocol semantics, convergence, variants."""

import threading
import time

import numpy as np
import pytest

from repro.autograd import KernelCounter, Sanitizer, TapeRecorder
from repro.model import DeePMD, ModelEnsemble, ModelSession, make_batch
from repro.model.calculator import DeePMDCalculator
from repro.optim import (
    FEKF, SGD, Adam, GradientWorker, KalmanConfig, NaiveEKF, RLEKF, WorkerSpec,
    error_signs, make_optimizer,
)
from repro.optim import ekf as ekf_mod
from repro.optim import lanes as lanes_mod
from repro.optim.base import OPTIMIZER_NAMES
from repro.optim.kalman import FLUSH_EVERY
from repro.parallel import DistributedFEKF
from repro.perf import BASELINE, OPT1
from repro.serve import ServeConfig
from repro.serve.worker import PredictSpec, session_for_models
from repro.telemetry import Tracer


def _kcfg(**kw):
    return KalmanConfig(blocksize=1024, fused_update=True, **kw)


class TestSignTrick:
    def test_signs_follow_algorithm1(self):
        errs = np.array([0.5, -0.5, 0.0])
        assert np.array_equal(error_signs(errs), [1.0, -1.0, -1.0])


class TestFEKFStep:
    def test_step_changes_weights(self, cu_model, cu_batch):
        opt = FEKF(cu_model, _kcfg())
        before = cu_model.params.flatten()
        opt.step_batch(cu_batch)
        assert not np.allclose(before, cu_model.params.flatten())

    def test_update_count_per_step(self, cu_model, cu_batch):
        opt = FEKF(cu_model, _kcfg(), n_force_splits=4)
        opt.step_batch(cu_batch)
        assert opt.kalman.updates == 5  # 1 energy + 4 force

    def test_custom_force_splits(self, cu_model, cu_batch):
        opt = FEKF(cu_model, _kcfg(), n_force_splits=2)
        opt.step_batch(cu_batch)
        assert opt.kalman.updates == 3

    def test_force_groups_partition_atoms(self, cu_model):
        opt = FEKF(cu_model, _kcfg(), n_force_splits=4)
        groups = opt.force_groups(32)
        joined = np.concatenate(groups)
        assert sorted(joined.tolist()) == list(range(32))

    def test_stats_returned(self, cu_model, cu_batch):
        stats = FEKF(cu_model, _kcfg()).step_batch(cu_batch)
        assert {"energy_abe", "force_abe", "lambda", "updates"} <= set(stats)
        assert stats["energy_abe"] > 0

    def test_deterministic_given_seed(self, cu_dataset, small_cfg, cu_batch):
        outs = []
        for _ in range(2):
            model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
            opt = FEKF(model, _kcfg(), seed=11)
            opt.step_batch(cu_batch)
            outs.append(model.params.flatten())
        assert np.array_equal(outs[0], outs[1])

    def test_fused_env_same_trajectory(self, cu_dataset, small_cfg, cu_batch):
        """The baseline's graph descriptor and Opt1 train alike."""
        outs = []
        for preset in (BASELINE, OPT1):
            model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
            opt = preset.optimizer(model, seed=3, blocksize=1024, fused_update=True)
            for _ in range(2):
                opt.step_batch(cu_batch)
            outs.append(opt.model.params.flatten())
        assert np.allclose(outs[0], outs[1], atol=1e-9)

    def test_step_scale_overrides_sqrt_bs(self, cu_dataset, small_cfg, cu_batch):
        m1 = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        m2 = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        base = m1.params.flatten()
        # tiny scale so the trust-region clip stays inactive for both
        FEKF(m1, _kcfg(), step_scale=1e-4, seed=3).step_batch(cu_batch)
        FEKF(m2, _kcfg(), step_scale=2e-4, seed=3).step_batch(cu_batch)
        d1 = np.linalg.norm(m1.params.flatten() - base)
        d2 = np.linalg.norm(m2.params.flatten() - base)
        assert d2 > d1 * 1.3

    @staticmethod
    def _overfit(cu_dataset, small_cfg, coupled_gain):
        """(energy, force) RMSE on one batch before and after 40 steps."""
        model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        batch = make_batch(cu_dataset, np.arange(4), small_cfg)
        kcfg = _kcfg()
        kcfg.coupled_gain = coupled_gain
        opt = FEKF(model, kcfg)

        def rmse():
            out = model.predict(batch)
            e = np.sqrt(np.mean(((out.energy - batch.energies) / batch.n_atoms) ** 2))
            f = np.sqrt(np.mean((out.forces - batch.forces) ** 2))
            return e, f

        before = rmse()
        for _ in range(40):
            opt.step_batch(batch)
        return before, rmse()

    def test_overfits_single_batch(self, cu_dataset, small_cfg):
        """The paper's core claim at miniature scale: FEKF fits energies
        and forces in a handful of updates."""
        (e0, f0), (e1, f1) = self._overfit(cu_dataset, small_cfg, False)
        # energy starts near-fit thanks to the bias init; forces must halve
        assert e1 < e0
        assert f1 < f0 * 0.5

    def test_coupled_gain_overfits_too(self, cu_dataset, small_cfg):
        """DESIGN.md ablation: the globally coupled gain (one scalar
        across blocks) converges like the default layer-wise one."""
        (e0, f0), (e1, f1) = self._overfit(cu_dataset, small_cfg, True)
        # one shared scalar trades a little of the near-fit energy for
        # the forces; the total error still more than halves
        assert f1 < f0 * 0.5
        assert e1 + f1 < (e0 + f0) * 0.5


class TestRLEKF:
    def test_rejects_multi_sample_batches(self, cu_model, cu_batch):
        with pytest.raises(ValueError):
            RLEKF(cu_model, _kcfg()).step_batch(cu_batch)

    def test_accepts_single_sample(self, cu_model, cu_dataset, small_cfg):
        batch = make_batch(cu_dataset, np.array([0]), small_cfg)
        stats = RLEKF(cu_model, _kcfg()).step_batch(batch)
        assert stats["updates"] == 5


class TestNaiveEKF:
    def test_p_replicas_grow_with_batch(self, cu_model, cu_batch):
        opt = NaiveEKF(cu_model, _kcfg())
        single = opt.kalman.p_memory_bytes()
        opt.step_batch(cu_batch)
        assert opt.p_memory_bytes() == cu_batch.batch_size * single

    def test_replicas_diverge(self, cu_model, cu_batch):
        opt = NaiveEKF(cu_model, _kcfg())
        opt.step_batch(cu_batch)
        sums = {round(r.checksum(), 12) for r in opt._replicas}
        assert len(sums) > 1  # per-sample P matrices drift apart

    def test_update_counts(self, cu_model, cu_batch):
        opt = NaiveEKF(cu_model, _kcfg(), n_force_splits=2)
        opt.step_batch(cu_batch)
        # every replica did 1 energy + 2 force updates
        assert all(r.updates == 3 for r in opt._replicas)

    def test_replica_forked_mid_window_tracks_its_source(
        self, cu_model, cu_dataset, small_cfg
    ):
        """A batch that grows after the first step forks new replicas off
        a filter with downdates pending (fused backend): the fork carries
        them, so fed its source's gradients it stays checksum-equal
        through the next rank-k flush."""
        opt = NaiveEKF(cu_model, _kcfg())
        opt.step_batch(make_batch(cu_dataset, np.array([0]), small_cfg))
        source, fork = opt._ensure_replicas(2)
        assert fork.pending == source.pending == 5
        assert fork.checksum() == source.checksum()
        r = np.random.default_rng(2)
        for _ in range(FLUSH_EVERY):
            g = r.normal(size=source.num_params) * 0.1
            assert np.array_equal(source.update(g, 0.1, 1.0), fork.update(g, 0.1, 1.0))
            assert fork.checksum() == source.checksum()
        # and the optimizer keeps training on the grown batch
        stats = opt.step_batch(make_batch(cu_dataset, np.arange(2), small_cfg))
        assert np.isfinite(stats["force_abe"])

    def test_step_changes_weights(self, cu_model, cu_batch):
        opt = NaiveEKF(cu_model, _kcfg())
        before = cu_model.params.flatten()
        opt.step_batch(cu_batch)
        assert not np.allclose(before, cu_model.params.flatten())

    def test_matches_fekf_at_batch_size_one(self, cu_dataset, small_cfg):
        """Fusiform and funnel coincide when there is nothing to aggregate."""
        batch = make_batch(cu_dataset, np.array([2]), small_cfg)
        m1 = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        m2 = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        # fresh force forwards on both sides (Naive-EKF always refreshes)
        FEKF(m1, _kcfg(), reuse_force_graph=False, seed=4).step_batch(batch)
        NaiveEKF(m2, _kcfg(), seed=4).step_batch(batch)
        assert np.allclose(m1.params.flatten(), m2.params.flatten(), atol=1e-12)


class TestForceGraphReuse:
    def test_reuse_and_fresh_similar_but_not_identical(self, cu_dataset, small_cfg, cu_batch):
        results = []
        for reuse in (True, False):
            model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
            opt = FEKF(model, _kcfg(), reuse_force_graph=reuse, seed=5)
            for _ in range(2):
                opt.step_batch(cu_batch)
            results.append(model.params.flatten())
        diff = np.linalg.norm(results[0] - results[1])
        norm = np.linalg.norm(results[1])
        assert diff > 0  # stale vs fresh H do differ...
        assert diff < 0.15 * norm  # ...but only slightly


class TestIgnoredCompiledKeyword:
    """The benchmark's pinned adapter builds ``FEKF(..., fused_env=...,
    compiled=...)``: FEKF accepts both keywords and ignores them (the
    descriptor is the model's), and nothing else takes either."""

    def test_fekf_accepts_it_and_trains_bit_identically(
        self, cu_dataset, small_cfg, cu_batch
    ):
        outs = []
        for kw in ({}, {"fused_env": False, "compiled": True}, {"fused_env": True}):
            model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
            opt = FEKF(model, _kcfg(), seed=11, **kw)
            for _ in range(2):
                opt.step_batch(cu_batch)
            outs.append(model.params.flatten())
            for key in ("compiled", "fused_env"):
                assert key not in opt.stats()
                assert key not in opt.hyperparams
        assert outs[0].tobytes() == outs[1].tobytes() == outs[2].tobytes()

    def test_no_other_constructor_takes_it(self, cu_model):
        with pytest.raises(TypeError, match="compiled"):
            make_optimizer("fekf", cu_model, compiled=True)
        with pytest.raises(TypeError, match="compiled"):
            make_optimizer("distributed_fekf", cu_model, world_size=2, compiled=True)
        with pytest.raises(TypeError, match="compiled"):
            DistributedFEKF(cu_model, world_size=2, executor="serial", compiled=True)

    @pytest.mark.parametrize("name", OPTIMIZER_NAMES)
    def test_no_optimizer_name_takes_fused_env(self, cu_model, name):
        kw = {"world_size": 2} if name == "distributed_fekf" else {}
        with pytest.raises(TypeError, match="fused_env"):
            make_optimizer(name, cu_model, fused_env=True, **kw)

    def test_no_other_public_name_takes_fused_env(self, cu_model, cu_dataset, cu_batch):
        calls = [
            lambda: cu_model.energy_graph(cu_batch.coords, cu_batch, fused_env=True),
            lambda: cu_model.predict(cu_batch, fused_env=True),
            lambda: cu_model.predict_energy(cu_batch, fused_env=True),
            lambda: cu_model.evaluate_rmse(cu_dataset, fused_env=True),
            lambda: ModelSession(cu_model, fused_env=True),
            lambda: DeePMDCalculator(cu_model, cu_dataset.species, fused_env=True),
            lambda: ModelEnsemble([cu_model]).predict(cu_batch, fused_env=True),
            lambda: ServeConfig(fused_env=True),
            lambda: session_for_models([cu_model], fused_env=True),
            lambda: PredictSpec(models=[cu_model], fused_env=True),
            lambda: GradientWorker(cu_model, fused_env=True),
            lambda: WorkerSpec(model=cu_model, fused_env=True),
            lambda: DistributedFEKF(cu_model, world_size=2, executor="serial",
                                    fused_env=True),
            lambda: Adam(cu_model, fused_env=True),
            lambda: SGD(cu_model, fused_env=True),
        ]
        for call in calls:
            with pytest.raises(TypeError, match="fused_env"):
                call()
        assert not hasattr(FEKF(cu_model, _kcfg()), "fused_env")


class _PoolSpy:
    """Stands in for the lane pool and keeps every task submitted to it."""

    def __init__(self, pool):
        self.pool = pool
        self.submitted = []

    def submit(self, fn, *args):
        self.submitted.append(args)
        return self.pool.submit(fn, *args)


def _stub_lanes(monkeypatch, n):
    monkeypatch.setattr(ekf_mod, "lane_count", lambda n_groups: min(n_groups, n))


@pytest.fixture()
def pool_spy(monkeypatch):
    """Two lanes for the force groups, and a spy on the lane pool."""
    _stub_lanes(monkeypatch, 2)
    spy = _PoolSpy(lanes_mod._HELPERS)
    monkeypatch.setattr(lanes_mod, "_HELPERS", spy)
    return spy


def _serial_kalman(opt):
    """One Kalman lane, so every pool task the step submits is a group."""
    opt.kalman.lanes = [list(range(len(opt.kalman.blocks)))]
    return opt


#: launches / op outputs each observer sees in the first step of
#: ``TestForceLanes._opt`` on an 8-frame batch -- the counts of the
#: serial step (one lane) for the same config
OBSERVED_COUNTS = {
    "kernel_counter": 1019,
    "tape": 1019,
    "sanitizer": 989,
    "profiler": 1019,
}


class TestForceLanes:
    """Under the shared force graph the force-group sweeps run on lanes;
    every lane count gives the same bits."""

    BS = 8  # 8 x 32 atoms x 16 slots x width 12 = 49k values, above the constant

    @staticmethod
    def _opt(dataset, cfg, kcfg=None, **kw):
        model = DeePMD.for_dataset(dataset, cfg, seed=1)
        return FEKF(model, kcfg or _kcfg(), seed=3, **kw)

    def _batches(self, dataset, cfg):
        n = len(dataset)
        return [
            make_batch(dataset, (np.arange(self.BS) + 5 * k) % n, cfg) for k in range(3)
        ]

    def test_batch_is_above_the_size_constant(self, cu_dataset, small_cfg, cu_batch):
        width = small_cfg.embedding_widths[-1]
        big = self._batches(cu_dataset, small_cfg)[0]
        assert big.idx_flat.size * width >= ekf_mod.SWEEP_LANES_MIN
        assert cu_batch.idx_flat.size * width < ekf_mod.SWEEP_LANES_MIN

    @pytest.mark.parametrize("coupled", [False, True])
    @pytest.mark.parametrize("fused", [True, False])
    def test_two_lanes_match_one_bit_for_bit(
        self, monkeypatch, cu_dataset, small_cfg, fused, coupled
    ):
        kcfg = KalmanConfig(blocksize=512, fused_update=fused, coupled_gain=coupled)
        batches = self._batches(cu_dataset, small_cfg)
        runs = []
        for n_lanes in (1, 2):
            _stub_lanes(monkeypatch, n_lanes)
            opt = self._opt(cu_dataset, small_cfg, kcfg)
            for k in range(25):  # 125 updates: the fused backend flushes 6 times
                opt.step_batch(batches[k % len(batches)])
                assert opt.stats()["force_lanes"] == n_lanes
            runs.append(opt)
        one, two = runs
        assert one.kalman.updates == 125 > FLUSH_EVERY
        assert one.model.params.flatten().tobytes() == two.model.params.flatten().tobytes()
        assert one.kalman.checksum() == two.kalman.checksum()
        sd_one, sd_two = one.state_dict(), two.state_dict()
        assert sd_one.keys() == sd_two.keys()
        for key in sd_one:
            assert np.array_equal(sd_one[key], sd_two[key]), key

    def test_baseline_preset_two_lanes_match_one(self, monkeypatch, cu_dataset, small_cfg):
        """The baseline's graph descriptor is the model's class, so it
        reaches the lane threads with the model: same bits on 1 and 2."""
        batches = self._batches(cu_dataset, small_cfg)
        runs = []
        for n_lanes in (1, 2):
            _stub_lanes(monkeypatch, n_lanes)
            model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
            opt = BASELINE.optimizer(model, seed=3, blocksize=512)
            for k in range(25):
                opt.step_batch(batches[k % len(batches)])
                assert opt.stats()["force_lanes"] == n_lanes
            runs.append(opt)
        one, two = runs
        assert type(one.model) is type(two.model) is BASELINE.model_class
        assert one.model.params.flatten().tobytes() == two.model.params.flatten().tobytes()
        assert one.kalman.checksum() == two.kalman.checksum()

    def test_groups_go_to_the_pool(self, pool_spy, cu_dataset, small_cfg):
        opt = _serial_kalman(self._opt(cu_dataset, small_cfg))
        opt.step_batch(self._batches(cu_dataset, small_cfg)[0])
        assert [lane for _, lane in pool_spy.submitted] == [[1, 3]]
        assert opt.stats()["force_lanes"] == 2

    @pytest.mark.parametrize("case", ["small_batch", "fresh_graph", "rlekf"])
    def test_no_group_task(self, pool_spy, cu_dataset, small_cfg, cu_batch, case):
        big = self._batches(cu_dataset, small_cfg)[0]
        if case == "small_batch":
            opt, batch = self._opt(cu_dataset, small_cfg), cu_batch
        elif case == "fresh_graph":
            opt = self._opt(cu_dataset, small_cfg, reuse_force_graph=False)
            batch = big
        else:
            model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
            opt = RLEKF(model, _kcfg(), seed=3)
            batch = big.frame_slice(0, 1)
        _serial_kalman(opt).step_batch(batch)
        assert pool_spy.submitted == []
        assert opt.stats()["force_lanes"] == 1

    @pytest.mark.parametrize("observer", sorted(OBSERVED_COUNTS))
    def test_observed_step_stays_on_the_observing_thread(
        self, pool_spy, cu_dataset, small_cfg, observer
    ):
        make, count = {
            "kernel_counter": (KernelCounter, lambda o: o.total_launches),
            "tape": (TapeRecorder, lambda o: len(o.launch_names)),
            "sanitizer": (lambda: Sanitizer(mode="collect"), lambda o: o.ops_checked),
            "profiler": (lambda: Tracer(profile=True), lambda o: len(o.profiler.events)),
        }[observer]
        opt = _serial_kalman(self._opt(cu_dataset, small_cfg))
        with make() as obs:
            opt.step_batch(self._batches(cu_dataset, small_cfg)[0])
        assert pool_spy.submitted == []
        assert opt.stats()["force_lanes"] == 1
        assert count(obs) == OBSERVED_COUNTS[observer]

    def test_plain_tracer_adopts_the_lane_spans(self, pool_spy, cu_dataset, small_cfg):
        opt = _serial_kalman(self._opt(cu_dataset, small_cfg))
        with Tracer() as tr, tr.span("step"):
            opt.step_batch(self._batches(cu_dataset, small_cfg)[0])
        assert len(pool_spy.submitted) == 1
        by_id = {e.span_id: e for e in tr.events}
        force = [
            e for e in tr.events
            if e.name == "fekf.gradient"
            and by_id[e.parent_id].name == "fekf.update"
            and by_id[e.parent_id].attrs["kind"] == "force"
        ]
        assert sorted(by_id[e.parent_id].attrs["group"] for e in force) == [0, 1, 2, 3]
        step = next(e for e in tr.events if e.name == "step")
        assert all(by_id[e.parent_id].parent_id == step.span_id for e in force)
        assert len([e for e in tr.events if e.name == "fekf.kalman"]) == 5

    @pytest.mark.parametrize("failing", [1, 0])
    def test_lane_error_surfaces_after_every_lane_joined(
        self, monkeypatch, cu_dataset, small_cfg, failing
    ):
        """Group 1 runs on the helper lane, group 0 on the caller's; the
        other lane is slowed so it is still sweeping when the error is
        raised."""
        _stub_lanes(monkeypatch, 2)
        opt = _serial_kalman(self._opt(cu_dataset, small_cfg))
        batch, nxt = self._batches(cu_dataset, small_cfg)[:2]
        state = opt._rng.bit_generator.state
        groups = opt.force_groups(batch.n_atoms)
        opt._rng.bit_generator.state = state
        real = opt.worker.force_group_gradient
        lock, live, finished = threading.Lock(), [0], []

        def flaky(f_pred, p, b, atom_group):
            gi = next(k for k, g in enumerate(groups) if np.array_equal(g, atom_group))
            with lock:
                live[0] += 1
            try:
                if gi == failing:
                    raise RuntimeError(f"group {gi} failed")
                if gi % 2 != failing % 2:
                    time.sleep(0.2)
                return real(f_pred, p, b, atom_group)
            finally:
                with lock:
                    live[0] -= 1
                    finished.append(gi)

        monkeypatch.setattr(opt.worker, "force_group_gradient", flaky)
        with pytest.raises(RuntimeError, match=f"group {failing} failed"):
            opt.step_batch(batch)
        assert live[0] == 0
        assert (1 - failing) in finished  # the other lane ran while it failed

        monkeypatch.setattr(opt.worker, "force_group_gradient", real)
        state, weights = opt.state_dict(), opt.model.params.flatten()
        opt.step_batch(nxt)
        assert opt.stats()["force_lanes"] == 2
        lanes_out = (opt.model.params.flatten().tobytes(), opt.kalman.checksum())
        opt.load_state_dict(state)
        opt.model.params.unflatten(weights)
        _stub_lanes(monkeypatch, 1)
        opt.step_batch(nxt)
        assert (opt.model.params.flatten().tobytes(), opt.kalman.checksum()) == lanes_out
