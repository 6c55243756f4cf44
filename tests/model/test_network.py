"""DeePMD network: forces, physical invariances, config, state dict."""

import numpy as np
import pytest

from repro.autograd import Tensor, grad, ops
from repro.data import Dataset
from repro.md import Cell
from repro.model import DeePMD, DeePMDConfig, make_batch


class TestConfig:
    def test_paper_sizes(self):
        cfg = DeePMDConfig.paper()
        assert cfg.m == 25 and cfg.m_less == 16
        assert cfg.descriptor_size == 400

    def test_paper_param_count(self, cu_dataset):
        model = DeePMD.for_dataset(cu_dataset, DeePMDConfig.paper(rcut=3.5, nmax=12))
        # embedding 1350 + fitting 25201 (paper reports 26651)
        assert model.num_params == 26551

    def test_mless_bound(self):
        with pytest.raises(ValueError):
            DeePMDConfig(embedding_widths=(8,), m_less=9)

    def test_cutoff_order(self):
        with pytest.raises(ValueError):
            DeePMDConfig(rcut=3.0, rcut_smooth=4.0)

    def test_with_cutoff(self):
        cfg = DeePMDConfig.paper().with_cutoff(4.0, nmax=10)
        assert cfg.rcut == 4.0 and cfg.nmax == 10 and cfg.rcut_smooth == pytest.approx(2.4)


class TestForward:
    def test_energy_shapes(self, cu_model, cu_batch):
        e = cu_model.predict_energy(cu_batch)
        assert e.shape == (cu_batch.batch_size,)

    def test_predict_returns_forces(self, cu_model, cu_batch):
        out = cu_model.predict(cu_batch)
        assert out.forces.shape == cu_batch.coords.shape

    def test_batch_independence(self, cu_model, cu_dataset, small_cfg):
        """Each frame's energy is independent of its batch-mates."""
        b3 = make_batch(cu_dataset, np.arange(3), small_cfg)
        b1 = make_batch(cu_dataset, np.array([1]), small_cfg)
        e3 = cu_model.predict_energy(b3)
        e1 = cu_model.predict_energy(b1)
        assert e3[1] == pytest.approx(e1[0], rel=1e-12)

    def test_fused_env_identical(self, cu_model, cu_batch):
        a = cu_model.predict(cu_batch, fused_env=False)
        b = cu_model.predict(cu_batch, fused_env=True)
        assert np.allclose(a.energy, b.energy, atol=1e-12)
        assert np.allclose(a.forces, b.forces, atol=1e-12)

    def test_energy_bias_shifts_total(self, cu_dataset, small_cfg):
        m1 = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        m2 = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        m2.energy_bias = m1.energy_bias + 0.5
        batch = make_batch(cu_dataset, np.arange(2), small_cfg)
        e1 = m1.predict_energy(batch)
        e2 = m2.predict_energy(batch)
        assert np.allclose(e2 - e1, 0.5 * cu_dataset.n_atoms)


class TestForces:
    @pytest.mark.parametrize("fused_env", [False, True])
    def test_forces_match_numeric_gradient(self, cu_model, cu_dataset, small_cfg, fused_env):
        """Central differences of the energy, on each path (True: the
        graph-free predict, energies and forces alike)."""
        batch = make_batch(cu_dataset, np.arange(2), small_cfg)
        out = cu_model.predict(batch, fused_env=fused_env)
        eps = 1e-5
        for (b, i, d) in [(0, 4, 0), (1, 10, 2), (0, 20, 1)]:
            def e_at(delta):
                nb = make_batch(cu_dataset, np.arange(2), small_cfg)
                c = nb.coords.copy()
                c[b, i, d] += delta
                nb.coords = c
                return cu_model.predict_energy(nb, fused_env=fused_env)[b]
            num = -(e_at(eps) - e_at(-eps)) / (2 * eps)
            assert out.forces[b, i, d] == pytest.approx(num, abs=1e-6)

    def test_forces_sum_to_zero(self, cu_model, cu_batch):
        """Translation invariance => total force vanishes."""
        out = cu_model.predict(cu_batch)
        assert np.allclose(out.forces.sum(axis=1), 0.0, atol=1e-9)


class TestInvariances:
    def _energy_of(self, model, dataset, cfg, coords):
        ds = Dataset(
            name="t",
            positions=coords[None],
            energies=np.zeros(1),
            forces=np.zeros_like(coords)[None],
            species=dataset.species,
            cell=dataset.cell,
        )
        batch = make_batch(ds, np.array([0]), cfg)
        return model.predict_energy(batch)[0]

    def test_translation_invariance(self, cu_model, cu_dataset, small_cfg):
        c0 = cu_dataset.positions[0]
        e0 = self._energy_of(cu_model, cu_dataset, small_cfg, c0)
        e1 = self._energy_of(
            cu_model, cu_dataset, small_cfg,
            cu_dataset.cell.wrap(c0 + np.array([0.37, -1.2, 2.9])),
        )
        assert e0 == pytest.approx(e1, abs=1e-8)

    def test_permutation_invariance(self, cu_model, cu_dataset, small_cfg):
        c0 = cu_dataset.positions[0]
        perm = np.random.default_rng(0).permutation(len(c0))
        e0 = self._energy_of(cu_model, cu_dataset, small_cfg, c0)
        e1 = self._energy_of(cu_model, cu_dataset, small_cfg, c0[perm])
        assert e0 == pytest.approx(e1, abs=1e-8)

    def test_rotation_invariance_cluster(self, small_cfg):
        """90-degree lattice rotation of an isolated cluster in a cubic box."""
        rng = np.random.default_rng(1)
        coords = 6.0 + rng.normal(scale=1.0, size=(8, 3))
        cell = Cell([40.0, 40.0, 40.0])
        ds = Dataset("c", coords[None], np.zeros(1), np.zeros((1, 8, 3)),
                     np.zeros(8, dtype=np.int64), cell)
        model = DeePMD.for_dataset(ds, small_cfg, seed=2)
        e0 = model.predict_energy(make_batch(ds, np.array([0]), small_cfg))[0]
        rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        center = coords.mean(axis=0)
        coords_r = (coords - center) @ rot.T + center
        ds_r = Dataset("c", coords_r[None], np.zeros(1), np.zeros((1, 8, 3)),
                       np.zeros(8, dtype=np.int64), cell)
        e1 = model.predict_energy(make_batch(ds_r, np.array([0]), small_cfg))[0]
        assert e0 == pytest.approx(e1, abs=1e-8)


class TestWeightGradients:
    def test_energy_gradient_matches_numeric(self, cu_model, cu_batch):
        p = cu_model.param_tensors()
        e = cu_model.energy_graph(Tensor(cu_batch.coords), cu_batch, p=p)
        name = "fit1_W"
        (g,) = grad(ops.tsum(e), [p[name]])
        eps = 1e-6
        idx = (2, 3)
        orig = cu_model.params[name].copy()
        for sgn, store in ((1, []), (-1, [])):
            pass
        w = orig.copy(); w[idx] += eps
        cu_model.params[name] = w
        ep = cu_model.predict_energy(cu_batch).sum()
        w = orig.copy(); w[idx] -= eps
        cu_model.params[name] = w
        em = cu_model.predict_energy(cu_batch).sum()
        cu_model.params[name] = orig
        assert g.data[idx] == pytest.approx((ep - em) / (2 * eps), rel=1e-4, abs=1e-8)

    def test_force_weight_gradient_fused_matches_graph(self, cu_model, cu_batch):
        rng = np.random.default_rng(4)
        proj = rng.normal(size=cu_batch.coords.shape)
        results = []
        for fused in (False, True):
            p = cu_model.param_tensors()
            coords = Tensor(cu_batch.coords, requires_grad=True)
            e = cu_model.energy_graph(coords, cu_batch, p=p, fused_env=fused)
            (gc,) = grad(ops.tsum(e), [coords], create_graph=True)
            scal = ops.tsum(ops.mul(gc, Tensor(proj)))
            gs = grad(scal, [p[n] for n in cu_model.params.names()])
            results.append(np.concatenate([g.data.ravel() for g in gs]))
        assert np.allclose(results[0], results[1], atol=1e-10)


class TestStateDict:
    def test_roundtrip(self, cu_model, cu_batch, cu_dataset, small_cfg):
        e0 = cu_model.predict_energy(cu_batch)
        state = cu_model.state_dict()
        other = DeePMD.for_dataset(cu_dataset, small_cfg, seed=99)
        assert not np.allclose(other.predict_energy(cu_batch), e0)
        other.load_state_dict(state)
        assert np.allclose(other.predict_energy(cu_batch), e0, atol=1e-14)

    def test_state_dict_is_copy(self, cu_model):
        state = cu_model.state_dict()
        state["emb0_W"][:] = 0.0
        assert not np.allclose(cu_model.params["emb0_W"], 0.0)

    def test_evaluate_rmse_keys(self, cu_model, cu_dataset):
        out = cu_model.evaluate_rmse(cu_dataset, max_frames=4)
        assert set(out) == {"energy_rmse", "force_rmse", "total_rmse"}
        assert out["total_rmse"] == pytest.approx(out["energy_rmse"] + out["force_rmse"])
