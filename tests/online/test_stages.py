"""Stage decomposition: each stage equals its slice of the old monolith,
and the four stages driven by hand over a label store are bit-identical
to the pre-refactor monolithic active-learning loop."""

import contextlib

import numpy as np
import pytest

from repro.data import SYSTEMS, ShardedFrameStore
from repro.data.dataset import Dataset
from repro.md.integrator import LangevinIntegrator
from repro.model import DeePMD, ModelEnsemble
from repro.model.calculator import DeePMDCalculator
from repro.model.session import ModelSession
from repro.online import Explorer, IncrementalTrainer, Labeler, UncertaintyGate
from repro.optim.ekf import FEKF
from repro.optim.kalman import KalmanConfig
from repro.train.trainer import Trainer


def _store(tmp_path, dataset) -> ShardedFrameStore:
    """An empty label store for ``dataset``'s system."""
    return ShardedFrameStore.create(
        tmp_path / "labels", species=dataset.species, cell=dataset.cell
    )


@pytest.fixture(scope="module")
def system():
    spec = SYSTEMS["Cu"]
    pos, cell, sp, pot = spec.build("small")
    return spec, pos, cell, sp, pot


class TestExplorer:
    def test_bit_identical_to_monolith_explore(self, cu_dataset, small_cfg, system):
        """Stage MD must consume the RNG exactly as the retired inline
        ``_explore`` did -- same calculator, same chunking, same stream."""
        spec, _, cell, sp, _ = system
        model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        masses = spec.masses(cu_dataset.species)
        start = cu_dataset.positions[0]

        explorer = Explorer(
            model, cu_dataset.species, masses, cu_dataset.cell,
            md_steps=30, sample_every=10, rng=np.random.default_rng(7),
        )
        staged = explorer.explore(start, 400.0)

        # the pre-refactor loop, verbatim
        rng = np.random.default_rng(7)
        calc = DeePMDCalculator(model, cu_dataset.species)
        integ = LangevinIntegrator(
            calc, masses, cu_dataset.cell,
            timestep=2.0, temperature=400.0, friction=0.02, rng=rng,
        )
        state = integ.initialize(start, temp=400.0)
        frames = []
        for _ in range(3):
            state = integ.run(state, 10)
            frames.append(state.positions.copy())

        assert np.array_equal(staged, np.stack(frames))
        assert explorer.frames_per_segment == 3

    def test_refresh_loads_weights(self, cu_dataset, small_cfg):
        a = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        b = DeePMD.for_dataset(cu_dataset, small_cfg, seed=2)
        explorer = Explorer(
            a, cu_dataset.species, np.ones(cu_dataset.n_atoms),
            cu_dataset.cell, rng=np.random.default_rng(0),
        )
        explorer.refresh(b.state_dict())
        sa, sb = a.state_dict(), b.state_dict()
        for key in sb:
            assert np.array_equal(sa[key], sb[key]), key


class TestUncertaintyGate:
    @pytest.fixture(scope="class")
    def ensemble(self, cu_dataset, small_cfg):
        return ModelEnsemble.for_dataset(cu_dataset, small_cfg, n_models=2, seed=1)

    def test_decision_accounting(self, ensemble, cu_dataset):
        gate = UncertaintyGate(
            ensemble, cu_dataset.species, cu_dataset.cell,
            lo=0.0, hi=np.inf, max_new_frames=2,
        )
        decision = gate.select(cu_dataset.positions[:5])
        assert decision.n_candidates == 5
        assert decision.n_selected == 2  # cap binds
        assert decision.labels_avoided == 3
        assert not decision.mixed_version
        assert decision.versions == {0}

    def test_cap_keeps_highest_deviation(self, ensemble, cu_dataset):
        gate = UncertaintyGate(
            ensemble, cu_dataset.species, cu_dataset.cell,
            lo=0.0, hi=np.inf, max_new_frames=2,
        )
        decision = gate.select(cu_dataset.positions[:5])
        kept = set(decision.kept.tolist())
        top2 = set(np.argsort(-decision.deviations)[:2].tolist())
        assert kept == top2

    def test_band_filters(self, ensemble, cu_dataset):
        gate = UncertaintyGate(
            ensemble, cu_dataset.species, cu_dataset.cell, lo=1e9, hi=2e9,
        )
        decision = gate.select(cu_dataset.positions[:3])
        assert decision.n_selected == 0
        assert decision.labels_avoided == 3

    def test_rejects_uncertainty_free_scorer(self, cu_dataset, small_cfg):
        session = ModelSession(DeePMD.for_dataset(cu_dataset, small_cfg, seed=1))
        gate = UncertaintyGate(session, cu_dataset.species, cu_dataset.cell)
        with pytest.raises(TypeError):
            gate.select(cu_dataset.positions[:2])


class TestLabelerAndTrainer:
    def test_labels_match_reference(self, cu_dataset, system):
        _, _, _, _, pot = system
        labeler = Labeler(pot, cu_dataset.species, cu_dataset.cell)
        out = labeler.label(cu_dataset.positions[:2], 350.0)
        assert isinstance(out, Dataset)
        e, f = pot.energy_forces(cu_dataset.positions[1], cu_dataset.cell)
        assert out.energies[1] == pytest.approx(e)
        assert np.allclose(out.forces[1], f)
        assert np.all(out.temperatures == 350.0)

    def test_accumulate_and_ready(self, cu_dataset, small_cfg, system, tmp_path):
        _, _, _, _, pot = system
        ens = ModelEnsemble.for_dataset(cu_dataset, small_cfg, n_models=2, seed=1)
        store = _store(tmp_path, cu_dataset)
        with contextlib.closing(store), contextlib.closing(
            IncrementalTrainer(ens, label_store=store, batch_size=4, epochs_per_round=1)
        ) as trainer:
            labeler = Labeler(pot, cu_dataset.species, cu_dataset.cell)
            assert not trainer.ready
            trainer.accumulate(labeler.label(cu_dataset.positions[:2], 300.0))
            assert trainer.pool_frames == store.n_frames == 2
            assert not trainer.ready
            trainer.accumulate(labeler.label(cu_dataset.positions[2:5], 300.0))
            assert trainer.pool_frames == 5
            assert trainer.ready
            trainer.train_round(seed_offset=0)
            assert all(opt.kalman.updates > 0 for opt in trainer.optimizers)

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_rounds_are_backend_independent(
        self, cu_dataset, small_cfg, executor, tmp_path
    ):
        """A round over the label store is the same arithmetic wherever
        the members' ranks run -- and the same as Trainer.run over the
        in-memory dataset, whose per-epoch RMSE the round skips: weights
        and filters bit-identical."""
        ens = ModelEnsemble.for_dataset(cu_dataset, small_cfg, n_models=2, seed=1)
        seen = []
        store = _store(tmp_path, cu_dataset)
        with contextlib.closing(store), contextlib.closing(
            IncrementalTrainer(
                ens, label_store=store, batch_size=4, epochs_per_round=2, seed=3,
                executor=executor,
            )
        ) as trainer:
            trainer.on_member_result = seen.append
            trainer.accumulate(cu_dataset)
            trainer.train_round(seed_offset=0)
            assert seen == [0, 1]  # reported as each member comes home
            filters = [opt.state_dict() for opt in trainer.optimizers]

        ref = ModelEnsemble.for_dataset(cu_dataset, small_cfg, n_models=2, seed=1)
        for k, model in enumerate(ref.models):
            opt = FEKF(model, KalmanConfig(blocksize=2048), seed=3 + k)
            Trainer(model, opt, cu_dataset, None, batch_size=4, seed=1).run(max_epochs=2)
            assert np.array_equal(
                model.params.flatten(), ens.models[k].params.flatten()
            )
            expected = opt.state_dict()
            assert filters[k].keys() == expected.keys()
            for key in expected:
                assert np.array_equal(filters[k][key], expected[key]), key


class TestBatchDriverBitIdentity:
    def test_two_rounds_match_pre_refactor_monolith(
        self, cu_dataset, small_cfg, system, tmp_path
    ):
        """The four stages called in order over a label store -- the
        synchronous round -- reproduce the retired monolithic loop
        bit-for-bit: same labeled pool, same member weights, same filter
        state after a warm start and two rounds."""
        spec, _, _, _, pot = system
        sp = cu_dataset.species
        masses = spec.masses(sp)
        md_steps, sample_every, batch_size, epochs_per_round = 30, 10, 4, 1
        select_lo, select_hi, max_new_frames = 0.05, 1.0, 4
        timestep_fs, friction = 2.0, 0.02
        rounds = [(cu_dataset.positions[0], 400.0), (cu_dataset.positions[1], 600.0)]

        ensemble = ModelEnsemble.for_dataset(cu_dataset, small_cfg, n_models=2, seed=1)
        # the explorer walks the live first member: in a synchronous
        # round training and MD never overlap
        explorer = Explorer(
            ensemble.models[0], sp, masses, cu_dataset.cell,
            md_steps=md_steps, sample_every=sample_every,
            timestep_fs=timestep_fs, friction=friction,
            rng=np.random.default_rng(0),
        )
        gate = UncertaintyGate(
            ensemble, sp, cu_dataset.cell,
            lo=select_lo, hi=select_hi, max_new_frames=max_new_frames,
        )
        labeler = Labeler(pot, sp, cu_dataset.cell)
        store = _store(tmp_path, cu_dataset)
        trainer = IncrementalTrainer(
            ensemble, label_store=store, batch_size=batch_size,
            epochs_per_round=epochs_per_round, seed=0,
        )
        with contextlib.closing(store), contextlib.closing(trainer):
            trainer.accumulate(cu_dataset)
            trainer.train_round(seed_offset=-1)  # warm start
            for round_index, (start, temp) in enumerate(rounds):
                decision = gate.select(explorer.explore(start, temp))
                if decision.n_selected:
                    trainer.accumulate(labeler.label(decision.selected, temp))
                if trainer.ready:
                    trainer.train_round(seed_offset=round_index)
            pool = store.to_dataset()
            filters = [opt.state_dict() for opt in trainer.optimizers]

        # --- the pre-refactor loop, replayed verbatim ------------------
        ens = ModelEnsemble.for_dataset(cu_dataset, small_cfg, n_models=2, seed=1)
        rng = np.random.default_rng(0)
        kcfg = KalmanConfig(blocksize=2048)
        optimizers = [
            FEKF(m, KalmanConfig(**vars(kcfg)), seed=k)
            for k, m in enumerate(ens.models)
        ]
        labeled = cu_dataset

        def train_round(seed_offset):
            for model, opt in zip(ens.models, optimizers):
                Trainer(
                    model, opt, labeled, None,
                    batch_size=batch_size, seed=seed_offset + 1,
                ).run(max_epochs=epochs_per_round)

        train_round(seed_offset=-1)  # warm start
        for round_index, (start, temp) in enumerate(rounds):
            calc = DeePMDCalculator(ens.models[0], sp)
            integ = LangevinIntegrator(
                calc, masses, cu_dataset.cell,
                timestep=timestep_fs, temperature=temp,
                friction=friction, rng=rng,
            )
            state = integ.initialize(start, temp=temp)
            frames = []
            for _ in range(md_steps // sample_every):
                state = integ.run(state, sample_every)
                frames.append(state.positions.copy())
            candidates = np.stack(frames)
            preds = ens.predict_many(candidates, sp, cu_dataset.cell)
            devs = np.array([p.max_force_dev for p in preds])
            keep = (devs > select_lo) & (devs < select_hi)
            chosen = np.where(keep)[0]
            if len(chosen) > max_new_frames:
                order = np.argsort(-devs[chosen])
                chosen = chosen[order[: max_new_frames]]
            selected = candidates[chosen]
            if len(selected):
                energies = np.empty(len(selected))
                forces = np.empty_like(selected)
                for t, p in enumerate(selected):
                    energies[t], forces[t] = pot.energy_forces(p, cu_dataset.cell)
                labeled = Dataset(
                    name="active",
                    positions=np.concatenate([labeled.positions, selected]),
                    energies=np.concatenate([labeled.energies, energies]),
                    forces=np.concatenate([labeled.forces, forces]),
                    species=labeled.species,
                    cell=labeled.cell,
                    temperatures=np.concatenate(
                        [labeled.temperatures, np.full(len(selected), temp)]
                    ),
                )
            if labeled.n_frames >= batch_size:
                train_round(seed_offset=round_index)

        assert pool.n_frames == labeled.n_frames
        assert np.array_equal(pool.positions, labeled.positions)
        assert np.array_equal(pool.energies, labeled.energies)
        for mine, theirs in zip(ensemble.models, ens.models):
            a, b = mine.state_dict(), theirs.state_dict()
            assert a.keys() == b.keys()
            for key in a:
                assert np.array_equal(a[key], b[key]), key
        for a, theirs in zip(filters, optimizers):
            b = theirs.state_dict()
            assert a.keys() == b.keys()
            for key in a:
                assert np.array_equal(a[key], b[key]), key
