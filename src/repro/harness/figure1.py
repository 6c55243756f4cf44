"""Figure 1 -- the repetitive retraining loop that motivates the paper.

NNMD development retrains one model 20-100 times as sampling uncovers new
configurations.  This harness executes a scaled version of that loop: a
stream of data arrivals at increasing temperatures, each triggering a
fine-tune of the same model with the same persistent Kalman filter, and
reports the wall time and accuracy of every retraining round -- the
"training one model in minutes" headline as a workflow.
"""

from __future__ import annotations

import time

import numpy as np

from ..data.dataset import Dataset
from ..data.systems import get_system
from ..md.sampler import sample_trajectory
from ..optim.ekf import FEKF
from ..train.trainer import Trainer
from .common import Report, experiment_setup, fast_kalman


def run(
    system: str = "Cu",
    temperatures: tuple[float, ...] = (300.0, 500.0, 800.0, 1100.0, 1400.0),
    frames_per_arrival: int = 16,
    epochs_per_round: int = 3,
    seed: int = 0,
) -> Report:
    spec = get_system(system)
    pos, cell, sp, pot = spec.build("small")
    masses = spec.masses(sp)

    def arrival(temp: float, arrival_seed: int) -> Dataset:
        traj = sample_trajectory(
            pot, pos, cell, sp, masses, [temp], frames_per_arrival,
            timestep=spec.timestep, stride=4, equilibration_steps=25,
            seed=arrival_seed,
        )
        return Dataset.from_trajectory(f"{system}@{temp:.0f}K", traj)

    datasets = {t: arrival(t, seed + k) for k, t in enumerate(temperatures)}

    setup = experiment_setup(system, frames_per_temperature=4, seed=seed)
    model = setup.model(seed=1)
    opt = FEKF(model, fast_kalman(), seed=seed)

    report = Report(
        experiment="Figure 1",
        title=f"the retraining loop on {system}: one persistent filter, "
        f"{len(temperatures)} data arrivals",
        headers=["round", "new data", "retrain time (s)", "RMSE on new data", "RMSE on all seen"],
        paper_reference="Fig 1(d): the retraining loop runs 20-100 times per study",
    )
    seen: list[Dataset] = []
    for round_idx, temp in enumerate(temperatures, start=1):
        ds = datasets[temp]
        seen.append(ds)
        t0 = time.perf_counter()
        Trainer(model, opt, ds, None, batch_size=4, seed=seed).run(
            max_epochs=epochs_per_round
        )
        elapsed = time.perf_counter() - t0
        new_rmse = model.evaluate_rmse(ds, max_frames=8)["total_rmse"]
        all_rmse = float(
            np.mean([model.evaluate_rmse(d, max_frames=8)["total_rmse"] for d in seen])
        )
        report.add_row(
            round_idx,
            f"{frames_per_arrival} frames @ {temp:.0f}K",
            f"{elapsed:.1f}",
            f"{new_rmse:.4f}",
            f"{all_rmse:.4f}",
        )
    report.notes.append(
        "the same FEKF instance (P, lambda) persists across all rounds; "
        "no per-round hyperparameter retuning, matching Sec. 3.2's "
        "task-independent guideline"
    )
    return report
