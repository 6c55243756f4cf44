"""InferenceService basics: bit-identity, micro-batching, caching."""

import dataclasses
import sys
import threading
import time

import numpy as np
import pytest

from repro.model import ModelEnsemble, ModelSession, frames_to_batch
from repro.serve import InferenceService, ServeConfig, ServeOverloaded
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


@pytest.fixture()
def gated_batches(monkeypatch):
    """Record every assembled batch's size; each assembly signals
    ``entered`` and then blocks until ``gate`` is set, which holds the
    batcher busy so that the queue behind it fills in a known order."""
    sizes, entered, gate = [], threading.Event(), threading.Event()
    assemble = service_mod.frames_to_batch

    def spy(frames, *args, **kwargs):
        sizes.append(len(frames))
        entered.set()
        assert gate.wait(timeout=30.0), "test gate never opened"
        return assemble(frames, *args, **kwargs)

    monkeypatch.setattr(service_mod, "frames_to_batch", spy)
    return sizes, entered, gate


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.002)


def _in_background(fn, *args):
    t = threading.Thread(target=fn, args=args)
    t.start()
    return t


def _join_all(threads, timeout=30.0):
    for t in threads:
        t.join(timeout=timeout)
    assert not any(t.is_alive() for t in threads), "a client never finished"


class TestMicroBatching:
    def test_concurrent_clients_share_batches(self, cu_model, system, gated_batches):
        """Requests that arrive while a batch runs coalesce into the next
        batch: one batch in flight, seven single frames queued behind it,
        exactly two batches."""
        frames, species, cell = system
        sizes, entered, gate = gated_batches
        cfg = ServeConfig(max_batch=8, cache_predictions=False)
        results = {}
        with InferenceService(ModelSession(cu_model), cfg) as svc:
            def client(k):
                results[k] = svc.predict(frames[k % len(frames)], species, cell)

            threads = [_in_background(client, 0)]
            assert entered.wait(timeout=10.0)
            threads += [_in_background(client, k) for k in range(1, 8)]
            _wait_until(lambda: svc.stats()["queue_depth"] == 7)
            gate.set()
            _join_all(threads)
            stats = svc.stats()
        assert len(results) == 8 and stats["responses"] == 8
        assert sizes == [1, 7]
        assert stats["batches"] == 2 and stats["batch_occupancy"]["max"] == 7

    def test_lone_request_does_not_wait_for_mates(self, cu_model, system):
        """With no other work queued, a request is flushed at once: the
        retired ``max_delay_s`` is ignored, however long."""
        frames, species, cell = system
        cfg = ServeConfig(max_batch=8, max_delay_s=1.0, cache_predictions=False)
        with InferenceService(ModelSession(cu_model), cfg) as svc:
            t0 = time.perf_counter()
            svc.predict(frames[0], species, cell)
            assert time.perf_counter() - t0 < 0.5

    def test_bundle_served_in_one_batch_under_one_version(
        self, cu_model, system, gated_batches, monkeypatch
    ):
        """Batches take whole bundles in FIFO order: a 4-frame bundle queued
        behind a single frame does not fit beside it in ``max_batch`` 4, so
        it waits for the next batch instead of being split.  Every batch
        here swaps the weights, so a split bundle would mix versions."""
        frames, species, cell = system
        sizes, entered, gate = gated_batches
        cfg = ServeConfig(max_batch=4, cache_predictions=False)
        state = cu_model.state_dict()
        got = []
        with InferenceService(ModelSession(cu_model), cfg) as svc:
            assemble = service_mod.frames_to_batch

            def swapping(*args, **kwargs):
                batch = assemble(*args, **kwargs)
                svc.swap(state)  # the next batch runs under a new version
                return batch

            monkeypatch.setattr(service_mod, "frames_to_batch", swapping)
            first = _in_background(svc.predict, frames[0], species, cell)
            assert entered.wait(timeout=10.0)
            single = _in_background(svc.predict, frames[1], species, cell)
            _wait_until(lambda: svc.stats()["queue_depth"] == 1)
            bundle = _in_background(
                lambda: got.extend(svc.predict_many(frames[2:6], species, cell))
            )
            _wait_until(lambda: svc.stats()["queue_depth"] == 5)
            gate.set()
            _join_all([first, single, bundle])
        assert sizes == [1, 1, 4]
        assert len(got) == 4 and len({p.model_version for p in got}) == 1

    def test_rejected_bundle_never_reaches_assembly(self, cu_model, system, gated_batches):
        """A bundle that does not fit the queue is refused whole: none of
        its frames is batched, and every frame counts as requested and
        rejected."""
        frames, species, cell = system
        sizes, _, gate = gated_batches
        gate.set()
        cfg = ServeConfig(max_batch=4, max_queue=2, cache_predictions=False)
        with InferenceService(ModelSession(cu_model), cfg) as svc:
            with pytest.raises(ServeOverloaded):
                svc.predict_many(frames[:3], species, cell)
            stats = svc.stats()
            assert sizes == []
            assert (stats["requests"], stats["rejected"], stats["responses"]) == (3, 3, 0)
            assert stats["queue_depth"] == 0
            svc.predict_many(frames[:2], species, cell)
            stats = svc.stats()
        assert sizes == [2]
        assert stats["requests"] == stats["responses"] + stats["rejected"] == 5

    def test_bundles_under_contention_keep_counts_and_versions(self, cu_model, system):
        """More clients than cores, a tiny switch interval and a swapper:
        every frame is answered once, batch sizes add up to the responses,
        and no bundle of up to ``max_batch`` frames mixes versions."""
        frames, species, cell = system
        cfg = ServeConfig(max_batch=4, cache_predictions=False)
        state = cu_model.state_dict()
        rng = np.random.default_rng(11)
        work = [
            [frames[rng.integers(0, len(frames), 1 + (k + j) % 4)]
             + rng.normal(scale=1e-4, size=(1 + (k + j) % 4,) + frames.shape[1:])
             for j in range(5)]
            for k in range(6)
        ]
        mixed, stop = [], threading.Event()
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with InferenceService(ModelSession(cu_model), cfg) as svc:
                def client(k):
                    for bundle in work[k]:
                        preds = svc.predict_many(bundle, species, cell, timeout=30.0)
                        if len({p.model_version for p in preds}) != 1:
                            mixed.append(k)

                def swapper():
                    while not stop.is_set():
                        svc.swap(state)
                        time.sleep(0.001)

                threads = [_in_background(client, k) for k in range(6)]
                swaps = _in_background(swapper)
                _join_all(threads)
                stop.set()
                _join_all([swaps])
                stats = svc.stats()
        finally:
            sys.setswitchinterval(old_interval)
        n = sum(len(b) for per in work for b in per)
        assert stats["requests"] == stats["responses"] == n
        assert stats["batch_occupancy"]["sum"] == n
        assert not mixed

    def test_incompatible_frames_batched_separately(
        self, cu_model, cu_dataset, nacl_dataset
    ):
        """Requests for different systems must never co-batch; both still
        get answered (the NaCl model here is the Cu model -- only shapes
        matter for grouping)."""
        cfg = ServeConfig(max_batch=4)
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
        cfg = ServeConfig(cache_predictions=False, max_batch=4)
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
        cfg = ServeConfig(cache_predictions=False, max_batch=3)
        with InferenceService(ModelSession(cu_model), cfg) as svc:
            svc.predict_many(frames[:3], species, cell)
            svc.predict_many(frames[:3], species, cell)
            stats = svc.stats()
        assert kernel_frames == [3]  # the second batch built nothing
        assert stats["neighbor_cache"]["hits"] == 3

    def test_cache_disabled_builds_every_frame(self, cu_model, system, spies):
        frames, species, cell = system
        _, kernel_frames = spies
        cfg = ServeConfig(cache_predictions=False, cache_neighbors=False, max_batch=2)
        with InferenceService(ModelSession(cu_model), cfg) as svc:
            svc.predict_many(frames[:2], species, cell)
            svc.predict_many(frames[:2], species, cell)
        assert kernel_frames == [2, 2]


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"heartbeat_deadline_s": 0.0},
            {"max_queue": 0},
            {"request_timeout_s": 0.0},
            {"world_size": 0},
            {"cache_capacity": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)

    def test_max_delay_s_accepted_ignored_and_not_stored(self):
        """The retired deadline keyword: any value >= 0 passes and leaves
        no trace in the config; a negative one is still rejected."""
        for value in (0.0, 0.002, 1.0):
            cfg = ServeConfig(max_batch=4, max_delay_s=value)
            assert "max_delay_s" not in vars(cfg) and cfg == ServeConfig(max_batch=4)
            assert ServeConfig(**vars(cfg)) == cfg
        assert "max_delay_s" not in {f.name for f in dataclasses.fields(ServeConfig)}
        with pytest.raises(ValueError, match="max_delay_s"):
            ServeConfig(max_delay_s=-1.0)
        with pytest.raises(ValueError, match="max_delay_s"):
            dataclasses.replace(ServeConfig(), max_delay_s=-0.5)
