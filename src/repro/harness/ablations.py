"""Design-choice ablations (DESIGN.md Sec. 4 "Ablations").

(a) **lambda/nu guidance** (paper Sec. 3.2): convergence under the default
    (lambda0=0.98, nu=0.9987) vs the large-batch (0.90, 0.996) settings at
    small and large batch sizes -- the paper recommends the second pair
    once the batch size exceeds 1024; at our scaled batches the crossover
    shows up earlier.
(b) **funnel vs fusiform**: FEKF vs Naive-EKF at the same small batch --
    matched accuracy trajectory, wildly different cost and P memory.
(c) **force-graph reuse**: shared vs fresh force forwards per group
    update -- near-identical convergence, ~2x cheaper steps.
"""

from __future__ import annotations

import time

import numpy as np

from ..model.environment import make_batch
from ..optim.ekf import FEKF, NaiveEKF
from ..optim.kalman import KalmanConfig
from ..train.trainer import Trainer
from .common import Report, experiment_setup


def run_lambda_nu(
    system: str = "Cu",
    batch_sizes: tuple[int, ...] = (8, 64),
    epochs: int = 6,
    frames_per_temperature: int = 32,
    seed: int = 0,
) -> Report:
    report = Report(
        experiment="Ablation: lambda/nu",
        title="memory-factor schedule vs batch size (Sec. 3.2 guidance)",
        headers=["batch size", "(lambda0, nu)", "final E RMSE", "final F RMSE", "best E+F"],
        paper_reference="Sec 3.2: use (0.90, 0.996) beyond batch size 1024",
    )
    setup = experiment_setup(system, frames_per_temperature=frames_per_temperature, seed=seed)
    for bs in batch_sizes:
        for lam0, nu in ((0.98, 0.9987), (0.90, 0.996)):
            model = setup.model(seed=1)
            opt = FEKF(model, KalmanConfig(lambda0=lam0, nu=nu, blocksize=2048), seed=seed)
            res = Trainer(
                model, opt, setup.train, setup.test, batch_size=bs, seed=seed
            ).run(max_epochs=epochs)
            last = res.history[-1]
            report.add_row(
                bs,
                f"({lam0}, {nu})",
                f"{last.train_energy_rmse:.4f}",
                f"{last.train_force_rmse:.4f}",
                f"{res.best_total('train'):.4f}",
            )
    return report


def run_funnel_vs_fusiform(
    system: str = "Cu",
    batch_size: int = 4,
    steps: int = 20,
    frames_per_temperature: int = 16,
    seed: int = 0,
) -> Report:
    report = Report(
        experiment="Ablation: dataflow",
        title=f"funnel (FEKF) vs fusiform (Naive-EKF), bs {batch_size}",
        headers=["optimizer", "E+F RMSE after", "seconds", "P memory (MB)"],
        paper_reference="Table 2 / Sec 3.3: fusiform costs bs x P memory and bs x KF updates",
    )
    setup = experiment_setup(system, frames_per_temperature=frames_per_temperature, seed=seed)
    batch = make_batch(setup.train, np.arange(batch_size), setup.cfg)
    for cls in (FEKF, NaiveEKF):
        model = setup.model(seed=1)
        opt = cls(model, KalmanConfig(blocksize=2048), seed=seed)
        t0 = time.perf_counter()
        for _ in range(steps):
            opt.step_batch(batch)
        elapsed = time.perf_counter() - t0
        rmse = model.evaluate_rmse(setup.train, max_frames=16)["total_rmse"]
        mem = (
            opt.p_memory_bytes() if isinstance(opt, NaiveEKF) else opt.kalman.p_memory_bytes()
        ) / 1e6
        report.add_row(cls.name, f"{rmse:.4f}", f"{elapsed:.1f}", f"{mem:.1f}")
    report.notes.append(
        "both digest the same batches; fusiform keeps one P replica per "
        "sample (the memory column) and runs bs Kalman recursions per update"
    )
    return report


def run_force_graph_reuse(
    system: str = "Cu",
    batch_size: int = 8,
    epochs: int = 5,
    frames_per_temperature: int = 24,
    seed: int = 0,
) -> Report:
    report = Report(
        experiment="Ablation: force graph",
        title="shared vs fresh force forward per group update",
        headers=["mode", "best E+F RMSE", "optimizer seconds"],
        paper_reference="paper protocol: fresh forward per update (846 kernels each)",
    )
    setup = experiment_setup(system, frames_per_temperature=frames_per_temperature, seed=seed)
    for reuse, label in ((True, "shared graph"), (False, "fresh per group")):
        model = setup.model(seed=1)
        opt = FEKF(model, KalmanConfig(blocksize=2048), reuse_force_graph=reuse, seed=seed)
        res = Trainer(
            model, opt, setup.train, setup.test, batch_size=batch_size, seed=seed
        ).run(max_epochs=epochs)
        report.add_row(label, f"{res.best_total('train'):.4f}", f"{res.total_train_time:.1f}")
    return report


def run(**kwargs) -> Report:
    """Aggregate: runs all three ablations, returns the lambda/nu report
    and prints the others (CLI convenience)."""
    rep_b = run_funnel_vs_fusiform()
    print(rep_b.format_table())
    rep_c = run_force_graph_reuse()
    print(rep_c.format_table())
    return run_lambda_nu()
