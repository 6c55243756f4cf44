"""Hot swap under concurrent load: single-version micro-batches and
version-keyed cache purge, the invariants the gate depends on."""

import threading
import time

import numpy as np
import pytest

from repro.model import ModelEnsemble
from repro.online import UncertaintyGate
from repro.serve import InferenceService, ServeConfig


@pytest.fixture(scope="module")
def ensemble(cu_dataset, small_cfg):
    return ModelEnsemble.for_dataset(cu_dataset, small_cfg, n_models=2, seed=1)


class TestSwapRace:
    def test_no_mixed_versions_within_a_batch(self, ensemble, cu_dataset):
        """swap() racing in-flight predict_many: every micro-batch is
        computed under exactly one version snapshot, so a batch of
        co-submitted frames never mixes versions."""
        cfg = ServeConfig(max_batch=4, cache_predictions=False)
        payload = ensemble.state_dicts()
        rng = np.random.default_rng(3)
        base = cu_dataset.positions[:4]
        stop = threading.Event()

        with InferenceService(ensemble, cfg) as svc:
            def swapper():
                while not stop.is_set():
                    svc.swap(payload)
                    time.sleep(0.001)

            t = threading.Thread(target=swapper, daemon=True)
            t.start()
            versions_seen = set()
            try:
                for _ in range(25):
                    # fresh positions every round: no cache interplay,
                    # each call is one real forward
                    frames = base + rng.normal(scale=1e-4, size=base.shape)
                    preds = svc.predict_many(frames, cu_dataset.species,
                                             cu_dataset.cell)
                    batch_versions = {p.model_version for p in preds}
                    assert len(batch_versions) == 1, batch_versions
                    versions_seen |= batch_versions
            finally:
                stop.set()
                t.join()
        # the swaps really were interleaved with the batches
        assert len(versions_seen) > 1

    def test_gate_decisions_are_single_version_under_swaps(
        self, ensemble, cu_dataset
    ):
        cfg = ServeConfig(max_batch=4, cache_predictions=False)
        payload = ensemble.state_dicts()
        rng = np.random.default_rng(5)
        base = cu_dataset.positions[:4]
        stop = threading.Event()

        with InferenceService(ensemble, cfg) as svc:
            gate = UncertaintyGate(
                svc, cu_dataset.species, cu_dataset.cell, lo=0.0, hi=np.inf
            )

            def swapper():
                while not stop.is_set():
                    svc.swap(payload)
                    time.sleep(0.001)

            t = threading.Thread(target=swapper, daemon=True)
            t.start()
            try:
                for _ in range(15):
                    frames = base + rng.normal(scale=1e-4, size=base.shape)
                    decision = gate.select(frames)
                    assert not decision.mixed_version, decision.versions
            finally:
                stop.set()
                t.join()

    def test_swap_purges_version_keyed_cache(self, ensemble, cu_dataset):
        """A swap must be visible to the very next request: the cached
        old-version prediction may not be served again."""
        cfg = ServeConfig(max_batch=1, cache_predictions=True)
        frame = cu_dataset.positions[0]
        with InferenceService(ensemble, cfg) as svc:
            first = svc.predict(frame, cu_dataset.species, cu_dataset.cell)
            repeat = svc.predict(frame, cu_dataset.species, cu_dataset.cell)
            assert repeat.cached
            assert repeat.model_version == first.model_version

            version = svc.swap(ensemble.state_dicts())
            after = svc.predict(frame, cu_dataset.species, cu_dataset.cell)
            assert not after.cached  # purge forced a real forward
            assert after.model_version == version

            warm = svc.predict(frame, cu_dataset.species, cu_dataset.cell)
            assert warm.cached
            assert warm.model_version == version

    def test_swap_purge_visible_to_next_gate_decision(self, ensemble, cu_dataset):
        cfg = ServeConfig(max_batch=4, cache_predictions=True)
        frames = cu_dataset.positions[:3]
        with InferenceService(ensemble, cfg) as svc:
            gate = UncertaintyGate(
                svc, cu_dataset.species, cu_dataset.cell, lo=0.0, hi=np.inf
            )
            v0 = svc.model_version
            before = gate.select(frames)
            assert before.versions == {v0}
            version = svc.swap(ensemble.state_dicts())
            after = gate.select(frames)
            assert after.versions == {version}
