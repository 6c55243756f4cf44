"""Model-parallel FEKF: sharding the P blocks across ranks.

The paper's conclusion lists "adapt FEKF to support model parallelism" as
future work; the block-diagonal P makes the adaptation natural and we
implement it here.  Each rank owns a subset of the P blocks:

* forward/backward (the gradient g) still happens data-parallel or
  replicated -- g is allreduced exactly as before;
* each rank runs the Kalman recursion *only for its own blocks* (the
  per-block gains of the layer-wise scheme make blocks independent);
* the weight increments are stitched together with an allgather whose
  volume is O(N) -- tiny next to the O(sum N_b^2) work that was sharded.

With the paper's blocks {1350, 10240, 9810, 5151} the P work is dominated
by the 10240 block, so the achievable parallel speedup is bounded by the
largest block (~2.1x at 4 ranks) -- exactly the kind of imbalance the
paper's "P decoupling strategy needs to be adjusted" remark anticipates.
``shard_blocks`` therefore balances blocks across ranks by quadratic cost.
"""

from __future__ import annotations

import numpy as np

from ..optim.blocks import Block
from ..optim.kalman import KalmanConfig, KalmanState
from .comm import CostModel, SimCommunicator


def shard_blocks(blocks: list[Block], world_size: int) -> list[list[int]]:
    """Assign block indices to ranks, balancing sum(N_b^2) per rank
    (longest-processing-time greedy)."""
    order = sorted(range(len(blocks)), key=lambda i: -blocks[i].size ** 2)
    loads = [0] * world_size
    shards: list[list[int]] = [[] for _ in range(world_size)]
    for i in order:
        r = int(np.argmin(loads))
        shards[r].append(i)
        loads[r] += blocks[i].size ** 2
    return [sorted(s) for s in shards]


class ModelParallelKalman:
    """A KalmanState whose per-block updates are sharded over ranks.

    Executes every rank deterministically in-process (like the rest of
    :mod:`repro.parallel`) and accounts the allgather traffic of the
    weight increments.  Numerically identical to the serial
    :class:`~repro.optim.kalman.KalmanState` with per-block gains
    (asserted by the tests).
    """

    def __init__(
        self,
        num_params: int,
        layer_sizes: list[tuple[int, int]],
        cfg: KalmanConfig,
        world_size: int,
        cost_model: CostModel | None = None,
    ):
        if cfg.coupled_gain:
            raise ValueError(
                "model-parallel sharding requires independent per-block "
                "gains (coupled_gain=False)"
            )
        self.world_size = int(world_size)
        self.comm = SimCommunicator(self.world_size, cost_model)
        # one full state object holds the math; sharding controls which
        # blocks each simulated rank touches
        self._state = KalmanState(num_params, layer_sizes, cfg)
        self.shards = shard_blocks(self._state.blocks, self.world_size)

    # ------------------------------------------------------------------
    @property
    def blocks(self) -> list[Block]:
        return self._state.blocks

    @property
    def lam(self) -> float:
        return self._state.lam

    @property
    def updates(self) -> int:
        return self._state.updates

    def p_memory_bytes_per_rank(self) -> list[int]:
        return [
            sum(self._state.p_mats[i].nbytes for i in shard) for shard in self.shards
        ]

    def parallel_efficiency(self) -> float:
        """sum(N_b^2) balance across ranks: 1.0 = perfectly even."""
        loads = [
            sum(self._state.blocks[i].size ** 2 for i in shard)
            for shard in self.shards
        ]
        total = sum(loads)
        return total / (self.world_size * max(loads)) if total else 1.0

    # ------------------------------------------------------------------
    def update(self, g_flat: np.ndarray, error: float, scale: float) -> np.ndarray:
        """One sharded Kalman update; returns the stitched increment."""
        state = self._state
        # per-block gains make the blocks independent, so the order in
        # which the simulated ranks visit them is immaterial: the shared
        # state does the math, the shards only decide who owns which
        # slice of the increment
        dw = state.update(g_flat, error, scale)

        # stitch the increment shards together: an allgather modeled as a
        # ring-allreduce over the sparse per-rank contributions
        contributions = []
        for shard in self.shards:
            part = np.zeros(state.num_params)
            for i in shard:
                blk = state.blocks[i]
                part[blk.slice()] = dw[blk.slice()]
            contributions.append(part)
        stitched = self.comm.ring_allreduce(contributions)[0]
        if not np.allclose(stitched, dw, atol=1e-12):  # pragma: no cover
            raise AssertionError("model-parallel stitch mismatch")
        return stitched

    def checksum(self) -> float:
        return self._state.checksum()
