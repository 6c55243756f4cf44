"""InferenceService basics: bit-identity, micro-batching, caching."""

import threading

import numpy as np
import pytest

from repro.model import ModelEnsemble, ModelSession, frames_to_batch
from repro.serve import InferenceService, ServeConfig
from repro.serve import service as service_mod
from repro.telemetry import Tracer

pytestmark = pytest.mark.usefixtures("cu_dataset")


@pytest.fixture()
def system(cu_dataset):
    return cu_dataset.positions, cu_dataset.species, cu_dataset.cell


class TestBitIdentity:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    @pytest.mark.parametrize("world_size", [1, 2])
    def test_served_equals_direct(self, cu_model, system, backend, world_size):
        """The batched, sharded server must return bit-identical energies
        and forces to a direct predict_many on the wrapped session."""
        frames, species, cell = system
        direct = ModelSession(cu_model).predict_many(frames[:5], species, cell)
        cfg = ServeConfig(
            max_batch=3, executor=backend, world_size=world_size,
            cache_predictions=False,
        )
        with InferenceService(ModelSession(cu_model), cfg) as svc:
            served = svc.predict_many(frames[:5], species, cell)
        for d, s in zip(direct, served):
            assert d.energy == s.energy
            assert np.array_equal(d.forces, s.forces)

    def test_single_predict_equals_many(self, cu_model, system):
        frames, species, cell = system
        with InferenceService(ModelSession(cu_model), ServeConfig()) as svc:
            one = svc.predict(frames[0], species, cell)
            many = svc.predict_many(frames[:1], species, cell)
        assert one.energy == many[0].energy
        assert np.array_equal(one.forces, many[0].forces)

    def test_ensemble_uncertainty_served(self, cu_dataset, small_cfg, system):
        frames, species, cell = system
        ens = ModelEnsemble.for_dataset(cu_dataset, small_cfg, n_models=2, seed=1)
        direct = ens.predict_many(frames[:3], species, cell)
        with InferenceService(ens, ServeConfig(max_batch=3)) as svc:
            served = svc.predict_many(frames[:3], species, cell)
        for d, s in zip(direct, served):
            assert d.energy == s.energy
            assert d.energy_std == s.energy_std
            assert d.max_force_dev == s.max_force_dev


class TestMicroBatching:
    def test_concurrent_clients_share_batches(self, cu_model, system):
        """Eight concurrent clients with a generous deadline must produce
        fewer forward batches than requests (i.e. real co-batching)."""
        frames, species, cell = system
        cfg = ServeConfig(max_batch=8, max_delay_s=0.1, cache_predictions=False)
        results = {}
        with InferenceService(ModelSession(cu_model), cfg) as svc:
            barrier = threading.Barrier(8)

            def client(k):
                barrier.wait()
                results[k] = svc.predict(frames[k % len(frames)], species, cell)

            threads = [threading.Thread(target=client, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = svc.stats()
        assert len(results) == 8
        assert stats["responses"] == 8
        assert stats["batches"] < 8
        assert stats["batch_occupancy"]["max"] > 1

    def test_incompatible_frames_batched_separately(
        self, cu_model, cu_dataset, nacl_dataset
    ):
        """Requests for different systems must never co-batch; both still
        get answered (the NaCl model here is the Cu model -- only shapes
        matter for grouping)."""
        cfg = ServeConfig(max_batch=4, max_delay_s=0.05)
        with InferenceService(ModelSession(cu_model), cfg) as svc:
            cu = svc.predict(
                cu_dataset.positions[0], cu_dataset.species, cu_dataset.cell
            )
            direct = ModelSession(cu_model).predict(
                cu_dataset.positions[0], cu_dataset.species, cu_dataset.cell
            )
            assert cu.energy == direct.energy


class TestCaching:
    def test_repeat_frame_served_from_cache(self, cu_model, system):
        frames, species, cell = system
        with InferenceService(ModelSession(cu_model), ServeConfig()) as svc:
            first = svc.predict(frames[0], species, cell)
            second = svc.predict(frames[0], species, cell)
            stats = svc.stats()
        assert not first.cached
        assert second.cached
        assert second.energy == first.energy
        assert np.array_equal(second.forces, first.forces)
        assert stats["cache_hits"] == 1
        assert stats["batches"] == 1  # no second forward pass

    def test_served_forces_are_read_only(self, cu_model, system):
        """A served prediction shares its forces with the cache: a caller's
        in-place write must raise, not poison every later hit."""
        frames, species, cell = system
        with InferenceService(ModelSession(cu_model), ServeConfig()) as svc:
            first = svc.predict(frames[0], species, cell)
            expect = first.forces.tobytes()
            with pytest.raises(ValueError):
                first.forces *= 0
            hit = svc.predict(frames[0], species, cell)
            with pytest.raises(ValueError):
                hit.forces[0, 0] = 1.0
        assert hit.cached
        assert hit.forces.tobytes() == expect
        direct = ModelSession(cu_model).predict(frames[0], species, cell)
        assert not direct.forces.flags.writeable

    def test_neighbor_cache_hits_across_duplicate_frames(self, cu_model, system):
        frames, species, cell = system
        cfg = ServeConfig(cache_predictions=False, max_batch=1)
        with InferenceService(ModelSession(cu_model), cfg) as svc:
            svc.predict(frames[0], species, cell)
            svc.predict(frames[0], species, cell)
            stats = svc.stats()
        assert stats["neighbor_cache"]["hits"] == 1
        assert stats["batches"] == 2  # prediction cache off: both computed

    def test_caches_disabled(self, cu_model, system):
        frames, species, cell = system
        cfg = ServeConfig(cache_predictions=False, cache_neighbors=False)
        with InferenceService(ModelSession(cu_model), cfg) as svc:
            a = svc.predict(frames[0], species, cell)
            b = svc.predict(frames[0], species, cell)
            stats = svc.stats()
        assert not a.cached and not b.cached
        assert a.energy == b.energy
        assert stats["neighbor_cache"]["hits"] == 0


class TestBatchedNeighbors:
    """A micro-batch's cache misses are built in one kernel call, and the
    batch it assembles does not depend on which frames were cached."""

    @pytest.fixture()
    def spies(self, monkeypatch):
        """Record every assembled DescriptorBatch and every kernel call's
        frame count inside the service."""
        batches, kernel_frames = [], []
        assemble, kernel = service_mod.frames_to_batch, service_mod.batch_neighbor_tables

        def batch_spy(*args, **kwargs):
            batches.append(assemble(*args, **kwargs))
            return batches[-1]

        def kernel_spy(frames, *args):
            kernel_frames.append(len(frames))
            return kernel(frames, *args)

        monkeypatch.setattr(service_mod, "frames_to_batch", batch_spy)
        monkeypatch.setattr(service_mod, "batch_neighbor_tables", kernel_spy)
        return batches, kernel_frames

    @staticmethod
    def _same_bytes(a, b):
        assert np.array_equal(a.coords.view(np.int64), b.coords.view(np.int64))
        assert np.array_equal(a.idx_flat, b.idx_flat)
        assert np.array_equal(a.shift.view(np.int64), b.shift.view(np.int64))
        assert np.array_equal(a.mask, b.mask)
        assert np.array_equal(a.species, b.species)

    def test_mixed_batch_equals_all_miss_and_direct(self, cu_model, small_cfg, system, spies):
        frames, species, cell = system
        batches, kernel_frames = spies
        cfg = ServeConfig(cache_predictions=False, max_batch=4, max_delay_s=1.0)
        with Tracer() as tr:
            with InferenceService(ModelSession(cu_model), cfg) as svc:
                svc.predict_many(frames[1:3], species, cell)  # warms 2 frames
                mixed_before = len(batches)
                svc.predict_many(frames[:4], species, cell)  # 2 hits, 2 misses
        mixed = batches[mixed_before:]
        assert [b.batch_size for b in mixed] == [4]
        assert kernel_frames[-1] == 2
        with InferenceService(ModelSession(cu_model), cfg) as svc:
            svc.predict_many(frames[:4], species, cell)
        all_miss = batches[-1]
        assert kernel_frames[-1] == 4
        direct = frames_to_batch(frames[:4], species, cell, small_cfg)
        self._same_bytes(mixed[0], all_miss)
        self._same_bytes(mixed[0], direct)
        misses = [e.attrs["misses"] for e in tr.events if e.name == "serve.neighbors"]
        assert misses[-1] == 2 and sum(misses) == 4

    def test_cached_tables_not_rebuilt(self, cu_model, system, spies):
        frames, species, cell = system
        _, kernel_frames = spies
        cfg = ServeConfig(cache_predictions=False, max_batch=3, max_delay_s=1.0)
        with InferenceService(ModelSession(cu_model), cfg) as svc:
            svc.predict_many(frames[:3], species, cell)
            svc.predict_many(frames[:3], species, cell)
            stats = svc.stats()
        assert kernel_frames == [3]  # the second batch built nothing
        assert stats["neighbor_cache"]["hits"] == 3

    def test_cache_disabled_builds_every_frame(self, cu_model, system, spies):
        frames, species, cell = system
        _, kernel_frames = spies
        cfg = ServeConfig(
            cache_predictions=False, cache_neighbors=False, max_batch=2, max_delay_s=1.0
        )
        with InferenceService(ModelSession(cu_model), cfg) as svc:
            svc.predict_many(frames[:2], species, cell)
            svc.predict_many(frames[:2], species, cell)
        assert kernel_frames == [2, 2]


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"max_delay_s": -1.0},
            {"max_queue": 0},
            {"request_timeout_s": 0.0},
            {"world_size": 0},
            {"cache_capacity": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)
