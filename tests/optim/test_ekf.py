"""EKF optimizers: protocol semantics, convergence, variants."""

import numpy as np
import pytest

from repro.model import DeePMD, make_batch
from repro.optim import FEKF, KalmanConfig, NaiveEKF, RLEKF, error_signs, make_optimizer
from repro.optim.kalman import FLUSH_EVERY
from repro.parallel import DistributedFEKF


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
        outs = []
        for fused in (False, True):
            model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
            opt = FEKF(model, _kcfg(), fused_env=fused, seed=3)
            for _ in range(2):
                opt.step_batch(cu_batch)
            outs.append(model.params.flatten())
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
        opt = FEKF(model, kcfg, fused_env=True)

        def rmse():
            out = model.predict(batch, fused_env=True)
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
    """The benchmark's pinned ``train_small`` twin builds
    ``FEKF(..., fused_env=False, compiled=True)``: FEKF accepts the keyword
    and ignores it, and nothing else takes it."""

    def test_fekf_accepts_it_and_trains_bit_identically(
        self, cu_dataset, small_cfg, cu_batch
    ):
        outs = []
        for compiled in (False, True):
            model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
            opt = FEKF(model, _kcfg(), fused_env=False, compiled=compiled, seed=11)
            for _ in range(2):
                opt.step_batch(cu_batch)
            outs.append(model.params.flatten())
            assert "compiled" not in opt.stats()
            assert "compiled" not in opt.hyperparams
        assert outs[0].tobytes() == outs[1].tobytes()

    def test_no_other_constructor_takes_it(self, cu_model):
        with pytest.raises(TypeError, match="compiled"):
            make_optimizer("fekf", cu_model, compiled=True)
        with pytest.raises(TypeError, match="compiled"):
            make_optimizer("distributed_fekf", cu_model, world_size=2, compiled=True)
        with pytest.raises(TypeError, match="compiled"):
            DistributedFEKF(cu_model, world_size=2, executor="serial", compiled=True)
