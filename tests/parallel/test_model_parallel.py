"""Model-parallel Kalman sharding (the paper's future-work extension)."""

import numpy as np
import pytest

from repro.optim import KalmanConfig, KalmanState
from repro.optim.blocks import Block
from repro.optim.kalman import FLUSH_EVERY
from repro.parallel import ModelParallelKalman, shard_blocks

LAYERS = [(0, 30), (1, 120), (2, 50), (3, 50), (4, 10)]
N = sum(s for _, s in LAYERS)


class TestSharding:
    def test_all_blocks_assigned_once(self):
        blocks = [Block(0, 10), Block(10, 40), Block(40, 45), Block(45, 60)]
        shards = shard_blocks(blocks, 2)
        flat = sorted(i for s in shards for i in s)
        assert flat == [0, 1, 2, 3]

    def test_balances_quadratic_cost(self):
        blocks = [Block(0, 100), Block(100, 110), Block(110, 120), Block(120, 130)]
        shards = shard_blocks(blocks, 2)
        # the giant block must sit alone; the three small ones together
        sizes = [[blocks[i].size for i in s] for s in shards]
        assert [100] in sizes

    def test_more_ranks_than_blocks(self):
        blocks = [Block(0, 5), Block(5, 10)]
        shards = shard_blocks(blocks, 4)
        assert sum(len(s) for s in shards) == 2


class TestModelParallelKalman:
    def _cfg(self, **kw):
        return KalmanConfig(blocksize=64, fused_update=True, **kw)

    def test_matches_serial_layerwise(self):
        rng = np.random.default_rng(0)
        serial = KalmanState(N, LAYERS, self._cfg())
        mp = ModelParallelKalman(N, LAYERS, self._cfg(), world_size=3)
        for _ in range(FLUSH_EVERY + 5):  # through a rank-k flush
            g = rng.normal(size=N) * 0.3
            dw_s = serial.update(g, 0.1, 2.0)
            dw_p = mp.update(g, 0.1, 2.0)
            assert np.allclose(dw_s, dw_p, atol=1e-12)
        assert serial.checksum() == pytest.approx(mp.checksum(), rel=1e-12)
        assert mp.updates == serial.updates and mp.lam == serial.lam

    def test_rejects_coupled_gain(self):
        with pytest.raises(ValueError):
            ModelParallelKalman(N, LAYERS, self._cfg(coupled_gain=True), 2)

    def test_memory_sharded_across_ranks(self):
        mp = ModelParallelKalman(N, LAYERS, self._cfg(), world_size=2)
        per_rank = mp.p_memory_bytes_per_rank()
        total = sum(p.nbytes for p in mp._state.p_mats)
        assert sum(per_rank) == total
        assert max(per_rank) < total  # genuinely split

    def test_parallel_efficiency_bounded(self):
        mp = ModelParallelKalman(N, LAYERS, self._cfg(), world_size=2)
        assert 0.0 < mp.parallel_efficiency() <= 1.0

    def test_allgather_traffic_is_order_n(self):
        mp = ModelParallelKalman(N, LAYERS, self._cfg(), world_size=4)
        mp.update(np.random.default_rng(1).normal(size=N), 0.1, 1.0)
        # per update: one ring pass over the N-element increment
        assert mp.comm.ledger.bytes_sent_per_rank < 2 * N * 8

    def test_gradient_shape_checked(self):
        mp = ModelParallelKalman(N, LAYERS, self._cfg(), world_size=2)
        with pytest.raises(ValueError):
            mp.update(np.zeros(N + 1), 0.1, 1.0)
