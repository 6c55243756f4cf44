"""The unified optimizer surface: protocol, factory parity, state_dict."""

import numpy as np
import pytest

from repro.model import DeePMD
from repro.optim import (
    FEKF,
    Adam,
    KalmanConfig,
    Optimizer,
    OPTIMIZER_NAMES,
    RLEKF,
    make_optimizer,
)
from repro.optim.first_order import ExponentialDecay


def _trajectory(model, opt, batch, steps=3):
    for _ in range(steps):
        opt.step_batch(batch)
    return model.params.flatten()


class TestFactoryParity:
    """make_optimizer must build the exact optimizer direct construction does."""

    def test_fekf(self, cu_dataset, small_cfg, cu_batch):
        m1 = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        o1 = FEKF(m1, KalmanConfig(blocksize=1024), seed=7)
        m2 = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        o2 = make_optimizer("fekf", m2, blocksize=1024, seed=7)
        assert np.array_equal(
            _trajectory(m1, o1, cu_batch), _trajectory(m2, o2, cu_batch)
        )

    def test_rlekf(self, cu_dataset, small_cfg):
        from repro.model import make_batch

        batch = make_batch(cu_dataset, np.arange(1), small_cfg)  # RLEKF is bs=1
        m1 = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        o1 = RLEKF(m1, KalmanConfig(blocksize=1024), seed=3)
        m2 = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        o2 = make_optimizer("rlekf", m2, blocksize=1024,
                            seed=3)
        assert np.array_equal(
            _trajectory(m1, o1, batch, steps=2),
            _trajectory(m2, o2, batch, steps=2),
        )

    def test_adam(self, cu_dataset, small_cfg, cu_batch):
        m1 = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        o1 = Adam(m1, schedule=ExponentialDecay(lr0=1e-3, rate=0.9, steps=50))
        m2 = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        o2 = make_optimizer("adam", m2, lr0=1e-3, decay_rate=0.9,
                            decay_steps=50)
        assert np.array_equal(
            _trajectory(m1, o1, cu_batch), _trajectory(m2, o2, cu_batch)
        )

    def test_every_name_satisfies_protocol(self, cu_model):
        for name in OPTIMIZER_NAMES:
            kw = {"world_size": 2} if name == "distributed_fekf" else {}
            opt = make_optimizer(name, cu_model, **kw)
            assert isinstance(opt, Optimizer), name
            assert isinstance(opt.hyperparams, dict), name

    def test_aliases_and_case(self, cu_model):
        from repro.optim.ekf import NaiveEKF

        assert isinstance(make_optimizer("naive", cu_model), NaiveEKF)
        assert isinstance(make_optimizer("FEKF", cu_model), FEKF)


class TestFactoryErrors:
    def test_unknown_name(self, cu_model):
        with pytest.raises(KeyError, match="available"):
            make_optimizer("lbfgs", cu_model)

    def test_unknown_override(self, cu_model):
        with pytest.raises(TypeError, match="blocksz"):
            make_optimizer("fekf", cu_model, blocksz=2048)

    def test_p_update_is_not_an_override(self, cu_model):
        """The fused P update is the only filter: no factory override and
        no hyperparameter selects it."""
        with pytest.raises(TypeError, match="fused_update"):
            make_optimizer("fekf", cu_model, blocksize=512, fused_update=True)
        assert "fused_update" not in make_optimizer("fekf", cu_model, blocksize=512).hyperparams

    def test_cfg_and_flat_fields_conflict(self, cu_model):
        with pytest.raises(TypeError, match="not both"):
            make_optimizer("fekf", cu_model, kalman_cfg=KalmanConfig(),
                           blocksize=512)

    @pytest.mark.parametrize("name", ["fekf", "rlekf", "naive_ekf", "distributed_fekf"])
    def test_every_ekf_name_resolves_kalman_settings_alike(self, cu_model, name):
        """One rule for every EKF name: a ``kalman_cfg`` excludes flat
        fields, and ``batch_size`` applies the large-batch guidance."""
        kw = {"world_size": 2, "executor": "serial"} if name == "distributed_fekf" else {}
        with pytest.raises(TypeError, match="not both"):
            make_optimizer(name, cu_model, kalman_cfg=KalmanConfig(blocksize=512),
                           lambda0=0.5, **kw)
        opt = make_optimizer(name, cu_model, batch_size=2048, blocksize=512, **kw)
        cfg = opt.kalman.cfg
        assert (cfg.lambda0, cfg.nu, cfg.blocksize) == (0.90, 0.996, 512)

    def test_distributed_requires_world_size(self, cu_model):
        with pytest.raises(TypeError, match="world_size"):
            make_optimizer("distributed_fekf", cu_model)


class TestStateDict:
    def test_fekf_save_load_resume_equivalence(self, cu_dataset, small_cfg, cu_batch):
        m1 = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        o1 = make_optimizer("fekf", m1, blocksize=1024,
                            seed=5)
        for _ in range(2):
            o1.step_batch(cu_batch)
        state = o1.state_dict()

        m2 = DeePMD.for_dataset(cu_dataset, small_cfg, seed=44)
        m2.load_state_dict(m1.state_dict())
        o2 = make_optimizer("fekf", m2, blocksize=1024,
                            seed=5)
        o2.load_state_dict(state)
        # re-sync the force-group shuffle rng, as test_checkpoint does
        o1._rng = np.random.default_rng(123)
        o2._rng = np.random.default_rng(123)
        for _ in range(2):
            o1.step_batch(cu_batch)
            o2.step_batch(cu_batch)
        assert np.allclose(m1.params.flatten(), m2.params.flatten(), atol=1e-12)
        assert o1.kalman.lam == pytest.approx(o2.kalman.lam)

    def test_fekf_rejects_foreign_state(self, cu_model):
        opt = make_optimizer("fekf", cu_model)
        with pytest.raises(KeyError):
            opt.load_state_dict({"sgd/velocity/w": np.zeros(3)})

    def test_adam_roundtrip(self, cu_dataset, small_cfg, cu_batch):
        m1 = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        o1 = make_optimizer("adam", m1)
        for _ in range(2):
            o1.step_batch(cu_batch)
        state = o1.state_dict()

        m2 = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        o2 = make_optimizer("adam", m2)
        o2.load_state_dict(state)
        assert o2.step_count == o1.step_count
        o1.step_batch(cu_batch)
        o2.step_batch(cu_batch)  # moments restored => same lr + update scale
        assert o2.step_count == o1.step_count

    def test_hyperparams_reflect_overrides(self, cu_model):
        opt = make_optimizer("fekf", cu_model, blocksize=512, lambda0=0.99,
                             n_force_splits=2)
        hp = opt.hyperparams
        assert hp["blocksize"] == 512
        assert hp["lambda0"] == 0.99
        assert hp["n_force_splits"] == 2
        assert hp["name"] == "FEKF"
