"""Shared setup for the online closed-loop tests."""

from __future__ import annotations

import shutil

import pytest

from repro.data import SYSTEMS, ShardedFrameStore
from repro.model import ModelEnsemble
from repro.online import OnlineConfig, OnlineLearner


@pytest.fixture(scope="module")
def split(cu_dataset):
    return cu_dataset.split(0.75, seed=0)


@pytest.fixture()
def make_learner(cu_dataset, small_cfg, split, tmp_path):
    """Factory for small, fast closed-loop learners (auto-closed).

    Each learner appends its labels to its own :class:`ShardedFrameStore`.
    By default that store is new and the learner warm-starts on the
    training split; ``resume_from=<learner>`` instead builds it over a
    copy of that learner's store directory with no warm start -- the
    store holds the pool, a checkpoint the rest."""
    created = []

    def factory(
        seed: int = 0, executor=None, resume_from: OnlineLearner = None, **overrides
    ) -> OnlineLearner:
        train, test = split
        ensemble = ModelEnsemble.for_dataset(train, small_cfg, n_models=2, seed=1)
        spec = SYSTEMS["Cu"]
        _, _, _, potential = spec.build("small")
        cfg = OnlineConfig(
            md_steps=20, sample_every=10, epochs_per_round=1,
            batch_size=4, max_new_frames=4, select_lo=0.0,
            target_swaps=1, max_segments=8, eval_frames=8,
        )
        for key, value in overrides.items():
            setattr(cfg, key, value)
        path = tmp_path / f"labels-{len(created)}"
        if resume_from is None:
            store = ShardedFrameStore.create(
                path, species=cu_dataset.species, cell=cu_dataset.cell
            )
            initial = train
        else:
            source = resume_from.trainer.label_store
            source.flush()
            shutil.copytree(source.path, path)
            store = ShardedFrameStore.open(path, "a")
            initial = None
        learner = OnlineLearner(
            ensemble, potential, cu_dataset.species,
            spec.masses(cu_dataset.species), cu_dataset.cell,
            label_store=store, holdout=test,
            cfg=cfg, initial_data=initial, seed=seed, executor=executor,
        )
        created.append(learner)
        return learner

    yield factory
    for learner in created:
        learner.close()
        learner.trainer.label_store.close()
