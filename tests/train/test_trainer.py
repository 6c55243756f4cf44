"""Trainer: convergence targets, history, eval cadence, timing."""

import numpy as np
import pytest

from repro.model import DeePMD
from repro.optim import FEKF, KalmanConfig
from repro.train import TargetCriterion, Trainer
from repro.train.trainer import EpochRecord


def _rec(e=1, te=0.1, tf=0.2):
    return EpochRecord(
        epoch=e,
        train_energy_rmse=te,
        train_force_rmse=tf,
        test_energy_rmse=te,
        test_force_rmse=tf,
        wall_time=0.0,
        train_time=0.0,
    )


class TestTargetCriterion:
    def test_total_metric(self):
        assert TargetCriterion(0.31, "total").met(_rec())
        assert not TargetCriterion(0.29, "total").met(_rec())

    def test_energy_metric(self):
        assert TargetCriterion(0.15, "energy").met(_rec())
        assert not TargetCriterion(0.05, "energy").met(_rec())

    def test_force_metric(self):
        assert TargetCriterion(0.25, "force").met(_rec())
        assert not TargetCriterion(0.15, "force").met(_rec())


@pytest.fixture()
def trainer_parts(cu_dataset, small_cfg):
    train, test = cu_dataset.split(0.75, seed=0)
    model = DeePMD.for_dataset(train, small_cfg, seed=1)
    opt = FEKF(model, KalmanConfig(blocksize=1024))
    return model, opt, train, test


class TestRun:
    def test_history_per_epoch(self, trainer_parts):
        model, opt, train, test = trainer_parts
        tr = Trainer(model, opt, train, test, batch_size=4)
        res = tr.run(max_epochs=3)
        assert [r.epoch for r in res.history] == [1, 2, 3]
        assert res.total_wall_time > 0
        assert res.total_train_time > 0
        assert res.total_train_time <= res.total_wall_time

    def test_stops_at_target(self, trainer_parts):
        model, opt, train, test = trainer_parts
        tr = Trainer(model, opt, train, test, batch_size=4)
        res = tr.run(max_epochs=10, target=TargetCriterion(1e9, "total"))
        assert res.converged and res.epochs_to_target == 1

    def test_not_converged_flag(self, trainer_parts):
        model, opt, train, test = trainer_parts
        tr = Trainer(model, opt, train, test, batch_size=4)
        res = tr.run(max_epochs=2, target=TargetCriterion(1e-9, "total"))
        assert not res.converged and res.epochs_to_target is None

    def test_eval_every_skips_epochs(self, trainer_parts):
        model, opt, train, test = trainer_parts
        tr = Trainer(model, opt, train, test, batch_size=4, eval_every=2)
        res = tr.run(max_epochs=4)
        assert [r.epoch for r in res.history] == [2, 4]

    def test_eval_every_always_evaluates_last(self, trainer_parts):
        model, opt, train, test = trainer_parts
        tr = Trainer(model, opt, train, test, batch_size=4, eval_every=2)
        res = tr.run(max_epochs=3)
        assert res.history[-1].epoch == 3

    def test_evals_per_epoch_fractional(self, trainer_parts):
        model, opt, train, test = trainer_parts
        tr = Trainer(model, opt, train, test, batch_size=2, evals_per_epoch=2)
        res = tr.run(max_epochs=1)
        epochs = [r.epoch for r in res.history]
        assert any(0 < e < 1 for e in epochs)
        assert epochs[-1] == 1

    def test_fractional_target_stop(self, trainer_parts):
        model, opt, train, test = trainer_parts
        tr = Trainer(model, opt, train, test, batch_size=2, evals_per_epoch=4)
        res = tr.run(max_epochs=3, target=TargetCriterion(1e9, "total"))
        assert res.converged and res.epochs_to_target < 1.0

    def test_without_test_set_mirrors_train(self, trainer_parts):
        model, opt, train, _ = trainer_parts
        tr = Trainer(model, opt, train, None, batch_size=4)
        res = tr.run(max_epochs=1)
        rec = res.history[0]
        assert rec.test_energy_rmse == rec.train_energy_rmse

    def test_best_total_and_final(self, trainer_parts):
        model, opt, train, test = trainer_parts
        tr = Trainer(model, opt, train, test, batch_size=4)
        res = tr.run(max_epochs=3)
        assert res.best_total("train") <= res.history[0].train_total
        assert res.final is res.history[-1]

    def test_training_improves_rmse(self, trainer_parts):
        model, opt, train, test = trainer_parts
        tr = Trainer(model, opt, train, test, batch_size=4)
        res = tr.run(max_epochs=6)
        assert res.best_total("train") < res.history[0].train_total
