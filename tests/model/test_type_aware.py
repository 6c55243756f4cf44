"""Type-aware embedding (multi-species descriptor extension)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.autograd import Tensor, grad, ops
from repro.model import DeePMD, DeePMDConfig, make_batch


@pytest.fixture(scope="module")
def ta_cfg():
    return replace(
        DeePMDConfig(
            embedding_widths=(6, 6, 6), m_less=4, fitting_widths=(8, 8, 8),
            rcut=4.0, rcut_smooth=2.4, nmax=14,
        ),
        type_aware=True,
    )


class TestTypeAware:
    def test_embedding_input_width(self, nacl_dataset, ta_cfg):
        model = DeePMD.for_dataset(nacl_dataset, ta_cfg, seed=1)
        assert model.params["emb0_W"].shape[0] == 1 + 2  # s + 2 species

    def test_param_count_exceeds_blind_model(self, nacl_dataset, ta_cfg):
        blind = DeePMD.for_dataset(nacl_dataset, replace(ta_cfg, type_aware=False), seed=1)
        aware = DeePMD.for_dataset(nacl_dataset, ta_cfg, seed=1)
        assert aware.num_params == blind.num_params + 2 * 6

    @pytest.mark.parametrize("fused_env", [False, True])
    def test_forces_consistent_with_energy(self, nacl_dataset, ta_cfg, fused_env):
        model = DeePMD.for_dataset(nacl_dataset, ta_cfg, seed=1)
        batch = make_batch(nacl_dataset, np.arange(2), ta_cfg)
        out = model.predict(batch, fused_env=fused_env)
        eps = 1e-5
        for (b, i, d) in [(0, 3, 0), (1, 29, 2)]:
            def e_at(delta):
                nb = make_batch(nacl_dataset, np.arange(2), ta_cfg)
                c = nb.coords.copy(); c[b, i, d] += delta; nb.coords = c
                return model.predict_energy(nb, fused_env=fused_env)[b]
            num = -(e_at(eps) - e_at(-eps)) / (2 * eps)
            assert out.forces[b, i, d] == pytest.approx(num, abs=1e-6)

    def test_distinguishes_species_swap(self, nacl_dataset, ta_cfg):
        """Swapping Na and Cl identities changes the energy for the
        type-aware model but is invisible to the blind one."""
        batch = make_batch(nacl_dataset, np.arange(1), ta_cfg)
        swapped = make_batch(nacl_dataset, np.arange(1), ta_cfg)
        swapped.species = 1 - swapped.species

        aware = DeePMD.for_dataset(nacl_dataset, ta_cfg, seed=1)
        # neutralize the per-species bias so only the descriptor responds
        aware.energy_bias = np.zeros_like(aware.energy_bias)
        e_aware = aware.predict_energy(batch)[0]
        e_aware_swapped = aware.predict_energy(swapped)[0]
        assert e_aware != pytest.approx(e_aware_swapped, abs=1e-9)

        blind_cfg = replace(ta_cfg, type_aware=False)
        blind = DeePMD.for_dataset(nacl_dataset, blind_cfg, seed=1)
        blind.energy_bias = np.zeros_like(blind.energy_bias)
        e_blind = blind.predict_energy(batch)[0]
        e_blind_swapped = blind.predict_energy(swapped)[0]
        assert e_blind == pytest.approx(e_blind_swapped, abs=1e-9)

    def test_fused_env_path_identical(self, nacl_dataset, ta_cfg):
        model = DeePMD.for_dataset(nacl_dataset, ta_cfg, seed=1)
        batch = make_batch(nacl_dataset, np.arange(2), ta_cfg)
        a = model.predict(batch, fused_env=False)
        b = model.predict(batch, fused_env=True)
        assert np.allclose(a.forces, b.forces, atol=1e-12)

    def test_force_weight_gradients_exact(self, nacl_dataset, ta_cfg):
        model = DeePMD.for_dataset(nacl_dataset, ta_cfg, seed=1)
        batch = make_batch(nacl_dataset, np.arange(1), ta_cfg)
        p = model.param_tensors()
        coords = Tensor(batch.coords, requires_grad=True)
        e = model.energy_graph(coords, batch, p=p)
        (gc,) = grad(ops.tsum(e), [coords], create_graph=True)
        scal = ops.tsum(ops.mul(gc, gc))
        (gw,) = grad(scal, [p["emb0_W"]])
        name = "emb0_W"
        eps = 1e-6
        idx = (1, 2)

        def val():
            pp = model.param_tensors()
            cc = Tensor(batch.coords, requires_grad=True)
            ee = model.energy_graph(cc, batch, p=pp)
            (gg,) = grad(ops.tsum(ee), [cc], create_graph=True)
            return ops.tsum(ops.mul(gg, gg)).item()

        orig = model.params[name].copy()
        w = orig.copy(); w[idx] += eps; model.params[name] = w
        vp = val()
        w = orig.copy(); w[idx] -= eps; model.params[name] = w
        vm = val()
        model.params[name] = orig
        assert gw.data[idx] == pytest.approx((vp - vm) / (2 * eps), rel=1e-4, abs=1e-8)
