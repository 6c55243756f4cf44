"""End-to-end integration: data -> train -> evaluate -> save -> NNMD."""

import numpy as np
import pytest

from repro import (
    DeePMD,
    DeePMDCalculator,
    DeePMDConfig,
    FEKF,
    Adam,
    KalmanConfig,
    Trainer,
    generate_dataset,
)
from repro.md import LangevinIntegrator, kinetic_energy
from repro.data import SYSTEMS


@pytest.fixture(scope="module")
def trained():
    """Train a small FEKF model on Cu to a usable accuracy."""
    ds = generate_dataset("Cu", frames_per_temperature=16, size="small",
                          equilibration_steps=15, stride=3)
    train, test = ds.split(0.8, seed=0)
    cfg = DeePMDConfig.scaled_down(rcut=3.5, nmax=16)
    model = DeePMD.for_dataset(train, cfg, seed=1)
    opt = FEKF(model, KalmanConfig(blocksize=2048, fused_update=True))
    result = Trainer(model, opt, train, test, batch_size=4, seed=0).run(max_epochs=6)
    return model, opt, train, test, result


class TestTrainingPipeline:
    def test_fekf_converges(self, trained):
        _, _, _, _, result = trained
        first, best = result.history[0].train_total, result.best_total("train")
        assert best < first * 0.5

    def test_no_generalization_gap(self, trained):
        """Paper Table 4: train/test RMSE differ by a small margin."""
        _, _, _, _, result = trained
        rec = min(result.history, key=lambda r: r.train_total)
        assert abs(rec.test_total - rec.train_total) < 0.3 * rec.test_total + 0.05

    def test_fekf_beats_adam_in_epochs(self):
        """The paper's headline: FEKF needs far fewer epochs than Adam."""
        ds = generate_dataset("Al", frames_per_temperature=12, size="small",
                              equilibration_steps=10, stride=3)
        train, test = ds.split(0.8, seed=0)
        cfg = DeePMDConfig.scaled_down(rcut=3.9, nmax=16)

        m_f = DeePMD.for_dataset(train, cfg, seed=1)
        fekf = FEKF(m_f, KalmanConfig(blocksize=2048, fused_update=True))
        res_f = Trainer(m_f, fekf, train, test, batch_size=4, seed=0).run(max_epochs=5)

        m_a = DeePMD.for_dataset(train, cfg, seed=1)
        res_a = Trainer(m_a, Adam(m_a), train, test, batch_size=1, seed=0).run(max_epochs=5)
        assert res_f.best_total("train") < res_a.best_total("train")


class TestModelPersistence:
    def test_state_roundtrip_preserves_rmse(self, trained, tmp_path):
        model, _, _, test, _ = trained
        before = model.evaluate_rmse(test, max_frames=8)
        state = model.state_dict()
        clone = DeePMD.for_dataset(test, model.cfg, seed=123)
        clone.load_state_dict(state)
        after = clone.evaluate_rmse(test, max_frames=8)
        assert after["total_rmse"] == pytest.approx(before["total_rmse"], rel=1e-10)


class TestNNMD:
    def test_calculator_matches_model_predictions(self, trained):
        model, _, train, _, _ = trained
        calc = DeePMDCalculator(model, train.species)
        e, f = calc.energy_forces(train.positions[0], train.cell)
        assert np.isfinite(e)
        assert f.shape == (train.n_atoms, 3)
        assert np.allclose(f.sum(axis=0), 0.0, atol=1e-8)

    def test_md_with_trained_model_runs_stably(self, trained):
        """Drive NVE MD with the NN potential: energy must stay bounded."""
        model, _, train, _, _ = trained
        calc = DeePMDCalculator(model, train.species)
        masses = SYSTEMS["Cu"].masses(train.species)
        integ = LangevinIntegrator(calc, masses, train.cell, timestep=2.0,
                                   friction=0.0, rng=np.random.default_rng(0))
        st = integ.initialize(train.positions[0], temp=300.0)
        e0 = st.potential_energy + kinetic_energy(st.velocities, masses)
        st = integ.run(st, 25)
        e1 = st.potential_energy + kinetic_energy(st.velocities, masses)
        assert abs(e1 - e0) < 0.05 * abs(e0) + 1.0


class TestOnlineRetraining:
    def test_finetune_on_new_temperature_improves(self, trained):
        """Figure 1's loop: new configurations arrive and the *same* Kalman
        filter keeps running over them -- P and lambda persist, which is
        what makes EKF-style training naturally online."""
        model, opt, _, _, _ = trained
        hot = generate_dataset("Cu", frames_per_temperature=10, size="small",
                               equilibration_steps=15, stride=3, seed=42)
        # restrict to frames from the hottest ladder rung
        hot_frames = np.where(hot.temperatures == max(hot.temperatures))[0]
        hot = hot.subset(hot_frames)
        before = model.evaluate_rmse(hot, max_frames=10)
        Trainer(model, opt, hot, None, batch_size=4, seed=1).run(max_epochs=4)
        after = model.evaluate_rmse(hot, max_frames=10)
        assert after["total_rmse"] < before["total_rmse"]
