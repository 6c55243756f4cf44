"""Paper claims as deterministic assertions (ROADMAP: executable claims).

Each test pins one claim a harness experiment regenerates at full scale,
on a cost that does not depend on the host: seeded RMSEs, and the bytes
and launches the kernel counter records (the paper's own accounting --
its speedups are memory-traffic arguments).  Wall-clock numbers for the
same ladders are perfbench metrics, not assertions.
"""

import numpy as np

from repro.autograd import KernelCounter
from repro.model import DeePMD, make_batch
from repro.optim import Adam, FEKF, KalmanConfig, KalmanState, RLEKF
from repro.perf import BASELINE, measured_update_peak
from repro.perf.presets import DenseKalmanState


def test_table4_fekf_beats_adam_bs1_at_equal_data_budget(cu_dataset, small_cfg):
    """Table 4 in miniature (``harness table4``): after three passes'
    worth of frames, large-batch FEKF sits at a lower RMSE than Adam
    fed one sample at a time."""
    train, _ = cu_dataset.split(0.8, seed=0)
    budget_frames = 3 * train.n_frames

    def rmse_after(make_opt, bs):
        model = DeePMD.for_dataset(train, small_cfg, seed=1)
        opt = make_opt(model)
        rng = np.random.default_rng(0)
        for _ in range(budget_frames // bs):
            idx = rng.integers(0, train.n_frames, size=bs)
            opt.step_batch(make_batch(train, idx, small_cfg))
        return model.evaluate_rmse(train, max_frames=16)["total_rmse"]

    rmse_adam = rmse_after(Adam, 1)
    rmse_fekf = rmse_after(
        lambda m: FEKF(m, KalmanConfig(blocksize=2048)), 8
    )
    assert rmse_fekf < rmse_adam


def test_figure7a_per_pass_cost_ordering(cu_dataset, small_cfg):
    """Fig. 7(a)'s ladder (``harness figure7a``) per data pass: RLEKF
    (bs 1) >> FEKF (one batch, framework kernels) > FEKF with every
    system optimization, in bytes moved by the counted kernels.  Paper:
    11.6x and 3.25x in wall time at full data volume; 8 frames here give
    6.3x and 3.2x."""
    n = 8

    def pass_bytes(make_opt, bs):
        opt = make_opt(DeePMD.for_dataset(cu_dataset, small_cfg, seed=1))
        with KernelCounter() as kc:
            for lo in range(0, n, bs):
                opt.step_batch(
                    make_batch(cu_dataset, np.arange(lo, lo + bs), small_cfg)
                )
        return kc.total_bytes

    rlekf = pass_bytes(lambda m: BASELINE.optimizer(m, RLEKF, blocksize=1024), 1)
    fekf = pass_bytes(lambda m: BASELINE.optimizer(m, blocksize=1024), n)
    fekf_opt = pass_bytes(
        lambda m: FEKF(m, KalmanConfig(blocksize=1024)), n
    )
    assert rlekf > 4 * fekf
    assert fekf > 1.5 * fekf_opt


def test_opt3_fused_p_update_moves_5x_less_and_drops_the_transient():
    """Sec. 5.3 / Opt3 (``harness memory``): the fused P update is one
    launch per block instead of six, moves > 5x fewer bytes, and the
    N_b^2 temporaries of the naive kernel are gone."""
    layers = [(0, 336), (1, 2328), (2, 600), (3, 600), (4, 25)]
    n = sum(size for _, size in layers)
    g = np.random.default_rng(0).normal(size=n) * 0.1

    def counted(fused):
        cls = KalmanState if fused else DenseKalmanState
        state = cls(n, layers, KalmanConfig(blocksize=2048))
        with KernelCounter() as kc:
            state.update(g, 0.1, 1.0)
        return kc

    naive, fused = counted(False), counted(True)
    assert naive.total_launches == 6 * fused.total_launches
    assert naive.total_bytes > 5 * fused.total_bytes
    # at least one 2048^2 float64 temporary (32 MB) vs none
    assert measured_update_peak(layers, 2048, fused=False) > 30.0
    assert measured_update_peak(layers, 2048, fused=True) < 2.0
