"""Ensemble uncertainty: the committee the online loop's gate scores with."""

import numpy as np
import pytest

from repro.model import DeePMD, ModelEnsemble, make_batch


@pytest.fixture(scope="module")
def ensemble(cu_dataset, small_cfg):
    return ModelEnsemble.for_dataset(cu_dataset, small_cfg, n_models=3, seed=1)


class TestEnsemble:
    def test_needs_models(self):
        with pytest.raises(ValueError):
            ModelEnsemble([])

    def test_mixed_architectures_rejected(self, cu_dataset, small_cfg, tiny_cfg):
        a = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        b = DeePMD.for_dataset(cu_dataset, tiny_cfg, seed=2)
        with pytest.raises(ValueError):
            ModelEnsemble([a, b])

    def test_prediction_shapes(self, ensemble, cu_dataset, small_cfg):
        batch = make_batch(cu_dataset, np.arange(3), small_cfg)
        out = ensemble.predict(batch)
        assert out.energy.shape == (3,)
        assert out.forces.shape == batch.coords.shape
        assert out.max_force_dev.shape == (3,)

    def test_mean_is_member_average(self, ensemble, cu_dataset, small_cfg):
        batch = make_batch(cu_dataset, np.arange(2), small_cfg)
        out = ensemble.predict(batch)
        members = np.stack([m.predict(batch, fused_env=True).energy for m in ensemble.models])
        assert np.allclose(out.energy, members.mean(axis=0))

    def test_identical_members_zero_deviation(self, cu_dataset, small_cfg):
        m = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        twin = DeePMD.for_dataset(cu_dataset, small_cfg, seed=2)
        twin.load_state_dict(m.state_dict())
        ens = ModelEnsemble([m, twin])
        batch = make_batch(cu_dataset, np.arange(2), small_cfg)
        out = ens.predict(batch)
        assert np.allclose(out.max_force_dev, 0.0, atol=1e-12)
        assert np.allclose(out.energy_std, 0.0, atol=1e-12)

    def test_different_members_positive_deviation(self, ensemble, cu_dataset, small_cfg):
        batch = make_batch(cu_dataset, np.arange(2), small_cfg)
        assert np.all(ensemble.max_force_deviation(batch) > 0)

    def test_select_scoring_bit_identical_to_batch_path(
        self, ensemble, cu_dataset, small_cfg
    ):
        """Session-protocol scoring (what the gate calls) must score
        candidates bit-identically to the retired hand-built
        DescriptorBatch path (regression guard for the InferenceSession
        rewrite)."""
        from repro.model import frames_to_batch

        frames = cu_dataset.positions[:4]
        preds = ensemble.predict_many(frames, cu_dataset.species, cu_dataset.cell)
        batch = frames_to_batch(
            frames, cu_dataset.species, cu_dataset.cell, small_cfg
        )
        devs = ensemble.max_force_deviation(batch)
        assert [p.max_force_dev for p in preds] == [float(d) for d in devs]

    def test_served_scorer_matches_committee(self, ensemble, cu_dataset):
        """An InferenceService wrapping the same ensemble is a drop-in
        scorer: selection signals are bit-identical to the direct path."""
        from repro.serve import InferenceService, ServeConfig

        frames = cu_dataset.positions[:4]
        direct = ensemble.predict_many(frames, cu_dataset.species, cu_dataset.cell)
        with InferenceService(ensemble, ServeConfig(max_batch=4)) as svc:
            served = svc.predict_many(frames, cu_dataset.species, cu_dataset.cell)
        for d, s in zip(direct, served):
            assert d.energy == s.energy
            assert d.max_force_dev == s.max_force_dev
            assert np.array_equal(d.forces, s.forces)
