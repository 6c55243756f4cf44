"""Distributed FEKF: serial equivalence, replica consistency, accounting."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.determinism import state_fingerprint
from repro.autograd.instrument import KernelCounter
from repro.model import DeePMD, make_batch
from repro.optim import FEKF, KalmanConfig
from repro.optim.kalman import FLUSH_EVERY
from repro.parallel import DistributedFEKF
from repro.telemetry import Tracer
from repro.telemetry import metrics as _metrics


def _kcfg():
    return KalmanConfig(blocksize=1024)


#: ``state_fingerprint`` (first 16 hex digits) of the weights and the
#: filter state but its step count, after ``FLUSH_EVERY // 5 + 1`` steps on
#: serial ranks -- 25 updates, across a flush -- by (world size,
#: ``reuse_force_graph``).  Recorded when the data-parallel trainer still
#: kept its own copy of the step (whose state dict left
#: ``kalman/step_count`` at 0), so they pin the trajectory across the move
#: to FEKF's step.
PINNED = {
    (2, True): "3ce99eeaec1d2129",
    (2, False): "c25ee899574930b9",
    (3, True): "9de73e69a98e4246",
    (3, False): "f84a07679990e952",
}


class TestPinnedTrajectory:
    @pytest.mark.parametrize("reuse", [True, False])
    @pytest.mark.parametrize("world", [2, 3])
    def test_fingerprint_across_a_flush(self, cu_dataset, small_cfg, world, reuse):
        model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        dist = DistributedFEKF(
            model, world_size=world, kalman_cfg=_kcfg(),
            reuse_force_graph=reuse, seed=7, executor="serial",
        )
        steps = FLUSH_EVERY // 5 + 1
        for i in range(steps):
            idx = (np.arange(4) + 4 * i) % cu_dataset.n_frames
            dist.step_batch(make_batch(cu_dataset, idx, small_cfg))
        dist.close()
        assert (dist.kalman.updates, dist.kalman.pending) == (5 * steps, 5)
        state = dist.state_dict()
        del state["kalman/step_count"]
        trajectory = SimpleNamespace(state_dict=lambda: state)
        assert state_fingerprint(trajectory, model)[:16] == PINNED[world, reuse]


class _PassLog(KernelCounter):
    """A kernel counter that keeps the output shape of each ``P g`` pass."""

    def __init__(self):
        super().__init__()
        self.passes = []

    def record(self, op_name, nbytes=0, out_shape=None, in_shapes=None):
        super().record(op_name, nbytes, out_shape, in_shapes)
        if op_name == "p_symv_fused":
            self.passes.append(out_shape)


class TestOneStep:
    """The data-parallel step is FEKF's: under the shared force graph the
    four force updates are one ``update_many``, fed by one force round."""

    def _dist(self, cu_dataset, small_cfg, **kw):
        model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        return DistributedFEKF(
            model, world_size=2, kalman_cfg=_kcfg(), seed=7, executor="serial", **kw
        )

    def test_two_filter_spans_and_one_pass_per_block_for_the_force_updates(
        self, cu_dataset, small_cfg
    ):
        dist = self._dist(cu_dataset, small_cfg)
        batch = make_batch(cu_dataset, np.arange(4), small_cfg)
        with Tracer() as tr, _PassLog() as log:
            dist.step_batch(batch)
        dist.close()
        kalman = [e.attrs for e in tr.events if e.name == "fekf.kalman"]
        assert kalman == [{}, {"kind": "force", "groups": 4, "step": 0}]
        sizes = [b.size for b in dist.kalman.blocks]
        assert log.passes == [(n,) for n in sizes] + [(n, 4) for n in sizes]

    def test_a_step_takes_at_most_seven_rounds(self, cu_dataset, small_cfg):
        dist = self._dist(cu_dataset, small_cfg)
        rounds = []
        inner = dist.executor.submit

        def submit(calls, capture=False):
            rounds.append(calls[0][0])
            return inner(calls, capture=capture)

        dist.executor.submit = submit
        batch = make_batch(cu_dataset, np.arange(4), small_cfg)
        dist.step_batch(batch)
        dist.close()
        assert len(rounds) <= 7
        assert rounds.count("force_task") == 1

    def test_state_carries_the_step_count(self, cu_dataset, small_cfg):
        dist = self._dist(cu_dataset, small_cfg)
        batch = make_batch(cu_dataset, np.arange(4), small_cfg)
        for _ in range(2):
            dist.step_batch(batch)
        dist.close()
        assert dist.stats()["step_count"] == 2
        assert int(dist.state_dict()["kalman/step_count"]) == 2

    def test_moves_the_filter_signals_on_the_registry(self, cu_dataset, small_cfg):
        dist = self._dist(cu_dataset, small_cfg)
        batch = make_batch(cu_dataset, np.arange(4), small_cfg)
        updates0 = _metrics.REGISTRY.counter("kalman.updates").value
        dist.step_batch(batch)
        dist.close()
        assert _metrics.REGISTRY.counter("kalman.updates").value == updates0 + 5
        assert _metrics.REGISTRY.gauge("kalman.lambda").value == dist.kalman.lam


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
