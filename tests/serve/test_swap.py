"""Hot model swap: version monotonicity, drain correctness, cache purge."""

import threading

import numpy as np
import pytest

from repro.model import DeePMD, ModelSession
from repro.serve import InferenceService, ServeConfig


@pytest.fixture()
def two_models(cu_dataset, small_cfg):
    return (
        DeePMD.for_dataset(cu_dataset, small_cfg, seed=1),
        DeePMD.for_dataset(cu_dataset, small_cfg, seed=2),
    )


class TestSwapBasics:
    def test_swap_bumps_version_and_output(self, two_models, cu_dataset):
        m1, m2 = two_models
        pos, sp, cell = cu_dataset.positions[0], cu_dataset.species, cu_dataset.cell
        expected_v1 = ModelSession(m2).predict(pos, sp, cell)
        with InferenceService(ModelSession(m1), ServeConfig()) as svc:
            before = svc.predict(pos, sp, cell)
            assert svc.swap(m2.state_dict()) == 1
            after = svc.predict(pos, sp, cell)
        assert before.model_version == 0
        assert after.model_version == 1
        assert after.energy == expected_v1.energy
        assert np.array_equal(after.forces, expected_v1.forces)

    def test_swap_purges_prediction_cache(self, two_models, cu_dataset):
        m1, m2 = two_models
        pos, sp, cell = cu_dataset.positions[0], cu_dataset.species, cu_dataset.cell
        with InferenceService(ModelSession(m1), ServeConfig()) as svc:
            svc.predict(pos, sp, cell)
            warm = svc.predict(pos, sp, cell)
            assert warm.cached
            svc.swap(m2.state_dict())
            fresh = svc.predict(pos, sp, cell)
            stats = svc.stats()
        assert not fresh.cached  # the warm entry was for version 0
        assert fresh.model_version == 1
        assert fresh.energy != warm.energy
        assert stats["prediction_cache"]["size"] >= 1  # repopulated at v1

    def test_workers_resynced_lazily(self, two_models, cu_dataset):
        """With a multi-rank pool, the swap payload must reach every
        replica before the next dispatch (served == direct at v1)."""
        m1, m2 = two_models
        pos, sp, cell = cu_dataset.positions[0], cu_dataset.species, cu_dataset.cell
        expected = ModelSession(m2).predict(pos, sp, cell)
        cfg = ServeConfig(executor="thread", world_size=2, cache_predictions=False)
        with InferenceService(ModelSession(m1), cfg) as svc:
            svc.predict(pos, sp, cell)  # workers serve v0 once
            svc.swap(m2.state_dict())
            after = svc.predict_many(cu_dataset.positions[:2], sp, cell)
        assert after[0].model_version == 1
        assert after[0].energy == expected.energy
        assert np.array_equal(after[0].forces, expected.forces)


class TestConcurrentSwap:
    N_CLIENTS = 4
    N_REQUESTS = 6
    N_SWAPS = 3

    def test_no_lost_and_no_mixed_version_responses(self, cu_dataset, small_cfg):
        """Clients hammer the service while another thread swaps weights
        repeatedly.  Every response must (a) arrive, (b) carry a version
        from the swap sequence, (c) be *consistent*: its energy must equal
        the direct prediction of exactly the version it claims -- a batch
        computed partly under v and partly under v+1 would violate this.
        """
        models = [
            DeePMD.for_dataset(cu_dataset, small_cfg, seed=10 + v)
            for v in range(self.N_SWAPS + 1)
        ]
        pos, sp, cell = cu_dataset.positions[0], cu_dataset.species, cu_dataset.cell
        pool = [np.ascontiguousarray(cu_dataset.positions[t]) for t in range(3)]
        # ground truth per version per pool frame
        expected = [
            [ModelSession(m).predict(p, sp, cell).energy for p in pool]
            for m in models
        ]
        cfg = ServeConfig(max_batch=4)
        responses: list = []
        errors: list = []
        with InferenceService(ModelSession(models[0]), cfg) as svc:
            barrier = threading.Barrier(self.N_CLIENTS + 2)

            def client(k):
                got = []
                barrier.wait()
                for j in range(self.N_REQUESTS):
                    idx = (k + j) % len(pool)
                    try:
                        got.append((idx, svc.predict(pool[idx], sp, cell)))
                    except Exception as exc:  # pragma: no cover - fail below
                        errors.append(exc)
                responses.append(got)

            def swapper():
                barrier.wait()
                for v in range(1, self.N_SWAPS + 1):
                    assert svc.swap(models[v].state_dict()) == v

            threads = [
                threading.Thread(target=client, args=(k,))
                for k in range(self.N_CLIENTS)
            ] + [threading.Thread(target=swapper)]
            for t in threads:
                t.start()
            barrier.wait()
            for t in threads:
                t.join()

        assert not errors
        total = sum(len(got) for got in responses)
        assert total == self.N_CLIENTS * self.N_REQUESTS  # nothing lost
        for got in responses:
            versions = [p.model_version for _, p in got]
            # a single client's versions never go backwards
            assert versions == sorted(versions)
            for idx, p in got:
                assert 0 <= p.model_version <= self.N_SWAPS
                # the stamped version is the one that actually computed it
                assert p.energy == expected[p.model_version][idx]
