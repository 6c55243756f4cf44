"""Ablation benches for the design choices called out in DESIGN.md.

* per-block (layerwise) vs coupled Kalman gain,
* shared vs fresh force graph across the four group updates,
* hand-derived (fused) vs autograd (eager) descriptor environment,
* number of force-group updates per batch,
* gather-and-split blocksize sweep (P-update cost vs block granularity;
  single updates and whole flush windows of the deferred downdate).
"""

import numpy as np
import pytest

from repro.model import DeePMD, make_batch
from repro.optim import FEKF, KalmanConfig, KalmanState
from repro.optim.kalman import FLUSH_EVERY


@pytest.mark.parametrize("coupled", [False, True], ids=["layerwise", "coupled"])
def test_gain_coupling(benchmark, model, batch32, coupled):
    opt = FEKF(
        model,
        KalmanConfig(blocksize=2048, fused_update=True, coupled_gain=coupled),
        fused_env=True,
    )
    benchmark(opt.step_batch, batch32)


@pytest.mark.parametrize("reuse", [True, False], ids=["shared_graph", "fresh_graph"])
def test_force_graph_reuse(benchmark, model, batch32, reuse):
    opt = FEKF(
        model,
        KalmanConfig(blocksize=2048, fused_update=True),
        fused_env=True,
        reuse_force_graph=reuse,
    )
    benchmark(opt.step_batch, batch32)


@pytest.mark.parametrize("fused_env", [False, True], ids=["autograd_env", "fused_env"])
def test_descriptor_kernel(benchmark, model, batch32, fused_env):
    opt = FEKF(
        model, KalmanConfig(blocksize=2048, fused_update=True), fused_env=fused_env
    )
    benchmark(opt.step_batch, batch32)


@pytest.mark.parametrize("splits", [1, 4, 8])
def test_force_split_count(benchmark, model, batch32, splits):
    opt = FEKF(
        model,
        KalmanConfig(blocksize=2048, fused_update=True),
        fused_env=True,
        n_force_splits=splits,
    )
    stats = benchmark(opt.step_batch, batch32)
    assert stats["updates"] % (splits + 1) == 0


@pytest.mark.parametrize("span", [1, FLUSH_EVERY], ids=["one_update", "flush_window"])
@pytest.mark.parametrize("blocksize", [512, 2048, 4096])
def test_blocksize_sweep(benchmark, blocksize, span):
    """``one_update`` times single updates (its best rounds are the
    flush-free ones); ``flush_window`` times FLUSH_EVERY consecutive
    updates, so every round holds exactly one rank-k flush wherever it
    starts -- divide by FLUSH_EVERY for the amortised cost per update."""
    layers = [(0, 336), (1, 2328), (2, 600), (3, 600), (4, 25)]
    n = sum(s for _, s in layers)
    state = KalmanState(n, layers, KalmanConfig(blocksize=blocksize, fused_update=True))
    g = np.random.default_rng(0).normal(size=n) * 0.1

    def run():
        for _ in range(span):
            state.update(g, 0.1, 1.0)

    benchmark(run)


def test_coupled_and_layerwise_both_converge(cu_data, cfg):
    """Ablation sanity: both gain styles fit a fixed batch."""
    batch_idx = np.arange(8)
    for coupled in (False, True):
        model = DeePMD.for_dataset(cu_data, cfg, seed=1)
        opt = FEKF(
            model,
            KalmanConfig(blocksize=2048, fused_update=True, coupled_gain=coupled),
            fused_env=True,
        )
        batch = make_batch(cu_data, batch_idx, cfg)
        before = model.evaluate_rmse(cu_data, max_frames=8)["total_rmse"]
        for _ in range(15):
            opt.step_batch(batch)
        after = model.evaluate_rmse(cu_data, max_frames=8)["total_rmse"]
        assert after < before, f"coupled={coupled}"
