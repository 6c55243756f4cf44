"""The active-learning round -- explore, select, label, train -- as the
four online stages called in order over a label store."""

import numpy as np
import pytest

from repro.data import SYSTEMS, ShardedFrameStore
from repro.model import ModelEnsemble
from repro.online import Explorer, IncrementalTrainer, Labeler, UncertaintyGate


class _Round:
    """One synchronous round over the stages; the trainer warm-starts on
    ``initial`` and appends every labeled frame to ``store``."""

    def __init__(self, ensemble, reference, system, store, initial, *,
                 md_steps, select_lo=0.05, select_hi=1.0, max_new_frames=16):
        spec, cell, sp = system
        self.reference = reference
        self.cell = cell
        self.store = store
        self.explorer = Explorer(
            ensemble.models[0], sp, spec.masses(sp), cell,
            md_steps=md_steps, sample_every=10, rng=np.random.default_rng(0),
        )
        self.gate = UncertaintyGate(
            ensemble, sp, cell,
            lo=select_lo, hi=select_hi, max_new_frames=max_new_frames,
        )
        self.labeler = Labeler(reference, sp, cell)
        self.trainer = IncrementalTrainer(
            ensemble, label_store=store, batch_size=4, epochs_per_round=1, seed=0,
        )
        self.trainer.accumulate(initial)
        self.trainer.train_round(seed_offset=-1)

    def run(self, start, temp):
        decision = self.gate.select(self.explorer.explore(start, temp))
        if decision.n_selected:
            self.trainer.accumulate(self.labeler.label(decision.selected, temp))
        self.trainer.train_round(seed_offset=0)
        return decision


class TestActiveLearner:
    @pytest.fixture()
    def make_round(self, cu_dataset, small_cfg, tmp_path):
        created = []

        def factory(**cfg):
            ens = ModelEnsemble.for_dataset(cu_dataset, small_cfg, n_models=2, seed=1)
            spec = SYSTEMS["Cu"]
            _, cell, sp, pot = spec.build("small")
            store = ShardedFrameStore.create(
                tmp_path / f"labels-{len(created)}",
                species=cu_dataset.species, cell=cu_dataset.cell,
            )
            created.append(store)
            rnd = _Round(ens, pot, (spec, cell, sp), store, cu_dataset, **cfg)
            created.append(rnd.trainer)
            return rnd

        yield factory
        for obj in reversed(created):
            obj.close()

    def test_round_accumulates_labeled_data(self, make_round, cu_dataset):
        rnd = make_round(md_steps=30, max_new_frames=4)
        before = rnd.store.n_frames
        assert before == cu_dataset.n_frames
        decision = rnd.run(cu_dataset.positions[0], 400.0)
        assert rnd.store.n_frames == before + decision.n_selected
        assert rnd.trainer.pool_frames == rnd.store.n_frames
        assert decision.n_candidates == 3

    def test_selection_respects_cap(self, make_round, cu_dataset):
        rnd = make_round(md_steps=30, max_new_frames=4)
        decision = rnd.run(cu_dataset.positions[0], 400.0)
        assert decision.n_selected <= 4

    def test_labels_come_from_reference(self, make_round, cu_dataset):
        rnd = make_round(md_steps=30, max_new_frames=4)
        rnd.run(cu_dataset.positions[0], 400.0)
        new = rnd.store.to_dataset()
        t = new.n_frames - 1
        e, f = rnd.reference.energy_forces(new.positions[t], rnd.cell)
        assert new.energies[t] == pytest.approx(e)
        assert np.allclose(new.forces[t], f)

    def test_selection_band_filters(self, make_round, cu_dataset):
        # impossible band -> nothing selected, nothing labeled
        rnd = make_round(md_steps=20, select_lo=1e9, select_hi=2e9)
        before = rnd.store.n_frames
        decision = rnd.run(cu_dataset.positions[0], 300.0)
        assert decision.n_selected == 0
        assert rnd.store.n_frames == before
