"""Distributed FEKF: serial equivalence, replica consistency, accounting."""

import numpy as np
import pytest

from repro.model import DeePMD, make_batch
from repro.optim import FEKF, KalmanConfig
from repro.optim.kalman import FLUSH_EVERY
from repro.parallel import DistributedFEKF


def _kcfg():
    return KalmanConfig(blocksize=1024)


class TestSerialEquivalence:
    @pytest.mark.parametrize("world", [2, 3])
    def test_matches_serial_fekf(self, cu_dataset, small_cfg, world):
        m_serial = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        m_dist = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        serial = FEKF(m_serial, _kcfg(), seed=7)
        dist = DistributedFEKF(
            m_dist, world_size=world, kalman_cfg=_kcfg(), seed=7
        )
        batch_s = make_batch(cu_dataset, np.arange(6), small_cfg)
        batch_d = make_batch(cu_dataset, np.arange(6), small_cfg)
        for _ in range(2):
            serial.step_batch(batch_s)
            dist.step_batch(batch_d)
        assert np.allclose(
            m_serial.params.flatten(), m_dist.params.flatten(), atol=1e-10
        )

    def test_replica_verification_passes(self, cu_dataset, small_cfg):
        model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        dist = DistributedFEKF(
            model, world_size=2, kalman_cfg=_kcfg(), verify_replicas=True, seed=0
        )
        batch = make_batch(cu_dataset, np.arange(4), small_cfg)
        dist.step_batch(batch)  # raises if any replica diverges
        assert dist.kalman.updates == 5


    def test_replica_verification_spans_a_flush(self, cu_dataset, small_cfg):
        """The shadow P is a clone taken with nothing pending; it must
        stay checksum-equal while downdates pile up and across the rank-k
        flush (5 updates a step), and a mid-window load re-clones it with
        the pending pairs."""
        model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        dist = DistributedFEKF(
            model, world_size=2, kalman_cfg=_kcfg(), verify_replicas=True, seed=0
        )
        batch = make_batch(cu_dataset, np.arange(4), small_cfg)
        steps = FLUSH_EVERY // 5 + 1
        for _ in range(steps):
            dist.step_batch(batch)  # raises if the shadow diverges
        assert dist.kalman.updates == 5 * steps > FLUSH_EVERY
        assert dist.kalman.pending == 5 * steps % FLUSH_EVERY != 0
        dist.load_state_dict(dist.state_dict())  # mid-window re-clone
        assert dist._shadow.pending == dist.kalman.pending
        for _ in range(steps):
            dist.step_batch(batch)
        assert dist._shadow.checksum() == dist.kalman.checksum()
        dist.close()


class TestSharding:
    def test_batch_smaller_than_world_degrades_gracefully(self, cu_dataset, small_cfg):
        """batch_size < world_size: surplus ranks get empty shards whose
        zero-count results drop out of the count-weighted reduction, so
        the update matches a serial FEKF step on the same batch."""
        m_dist = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        m_serial = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        dist = DistributedFEKF(m_dist, world_size=4, kalman_cfg=_kcfg(), seed=7)
        serial = FEKF(m_serial, _kcfg(), seed=7)
        batch = make_batch(cu_dataset, np.arange(2), small_cfg)
        shards = dist._shards(batch)
        assert len(shards) == 4
        assert sum(s.batch_size for s in shards) == 2
        assert sum(1 for s in shards if s.batch_size == 0) == 2
        stats = dist.step_batch(batch)
        serial.step_batch(make_batch(cu_dataset, np.arange(2), small_cfg))
        assert stats["force_abe"] > 0
        assert np.allclose(
            m_serial.params.flatten(), m_dist.params.flatten(), atol=1e-10
        )

    def test_empty_batch_rejected(self, cu_dataset, small_cfg):
        model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        dist = DistributedFEKF(model, world_size=2, kalman_cfg=_kcfg())
        batch = make_batch(cu_dataset, np.arange(2), small_cfg)
        with pytest.raises(ValueError):
            dist._shards(batch.frame_slice(0, 0))

    def test_uneven_shards_allowed(self, cu_dataset, small_cfg):
        model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        dist = DistributedFEKF(model, world_size=3, kalman_cfg=_kcfg())
        batch = make_batch(cu_dataset, np.arange(5), small_cfg)
        stats = dist.step_batch(batch)
        assert stats["force_abe"] > 0


class TestAccounting:
    def test_comm_volume_scales_with_updates(self, cu_dataset, small_cfg):
        model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        dist = DistributedFEKF(model, world_size=2, kalman_cfg=_kcfg())
        batch = make_batch(cu_dataset, np.arange(4), small_cfg)
        dist.step_batch(batch)
        after_one = dist.comm.ledger.bytes_sent_per_rank
        dist.step_batch(batch)
        assert dist.comm.ledger.bytes_sent_per_rank == pytest.approx(2 * after_one)

    def test_timing_components_populated(self, cu_dataset, small_cfg):
        model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        dist = DistributedFEKF(model, world_size=2, kalman_cfg=_kcfg())
        batch = make_batch(cu_dataset, np.arange(4), small_cfg)
        stats = dist.step_batch(batch)
        assert dist.timing.compute_s > 0
        assert dist.timing.comm_s > 0
        assert dist.timing.kalman_s > 0
        assert dist.timing.total_s == pytest.approx(
            dist.timing.compute_s + dist.timing.comm_s + dist.timing.kalman_s
        )
        # the real clock runs alongside the modeled one and covers at
        # least the (measured) compute it contains
        assert stats["wall_time_s"] == pytest.approx(dist.timing.wall_s)
        assert stats["modeled_time_s"] == pytest.approx(dist.timing.total_s)
        assert dist.timing.wall_s >= dist.timing.compute_s

    def test_gradient_traffic_never_includes_p(self, cu_dataset, small_cfg):
        """Sec. 3.3: only gradients + ABE scalars move, never P."""
        model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        dist = DistributedFEKF(model, world_size=4, kalman_cfg=_kcfg())
        batch = make_batch(cu_dataset, np.arange(4), small_cfg)
        dist.step_batch(batch)
        # 5 gradient allreduces (the closed form) + 5 O(world) ABE scalars
        from repro.parallel import allreduce_volume_bytes

        grad_vol = allreduce_volume_bytes(model.num_params, 4)
        p_vol = allreduce_volume_bytes(dist.kalman.p_memory_bytes() // 8, 4)
        total = dist.comm.ledger.bytes_sent_per_rank
        assert 5 * grad_vol <= total < 5 * grad_vol + 1000
        assert total < p_vol / 50  # orders below what moving P would need


class TestCheckpointResume:
    def test_state_roundtrip_with_replica_verification(self, cu_dataset, small_cfg):
        """state_dict/load_state_dict round-trip: the shadow P is
        re-cloned on load, so checksum verification keeps passing after a
        resume and both trainers continue bit-identically."""
        kcfg = _kcfg()
        m_a = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        a = DistributedFEKF(
            m_a, world_size=2, kalman_cfg=kcfg, verify_replicas=True, seed=3
        )
        batch = make_batch(cu_dataset, np.arange(4), small_cfg)
        a.step_batch(batch)
        state = {k: v.copy() for k, v in a.state_dict().items()}

        m_b = DeePMD.for_dataset(cu_dataset, small_cfg, seed=99)  # different init
        b = DistributedFEKF(
            m_b, world_size=2, kalman_cfg=kcfg, verify_replicas=True, seed=3
        )
        # a resume restores weights (checkpoint layer) + filter state;
        # load_state_dict must also re-sync every rank replica, or the
        # workers would keep computing at the seed-99 init weights
        m_b.params.unflatten(m_a.params.flatten().copy())
        b.load_state_dict(state)
        assert np.array_equal(m_a.params.flatten(), m_b.params.flatten())
        assert a.kalman.checksum() == b.kalman.checksum()

        # both continue (shadow verification raises on any divergence)
        a.step_batch(batch)
        b.step_batch(batch)
        assert np.array_equal(m_a.params.flatten(), m_b.params.flatten())
        assert a.kalman.checksum() == b.kalman.checksum()
