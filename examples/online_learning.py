"""Online learning: the paper's Figure 1 retraining loop, in minutes.

NNMD development retrains the same model 20-100 times as new ab-initio
configurations arrive (new temperatures, new phases).  Because FEKF *is* a
Kalman filter, its state (P, lambda) persists across data arrivals: each
new batch of configurations is just more measurements for the same filter.

This script simulates three data arrivals for a copper system -- 400 K,
then 800 K, then 1200 K configurations -- fine-tuning the same model/filter
on each and printing how accuracy on each regime evolves.

Run:  python examples/online_learning.py
"""

import numpy as np

from repro import Callback, DeePMD, DeePMDConfig, Trainer, make_optimizer
from repro.data import SYSTEMS, Dataset
from repro.md import sample_trajectory


def sample_at(temp: float, n_frames: int, seed: int) -> Dataset:
    spec = SYSTEMS["Cu"]
    pos, cell, sp, pot = spec.build("small")
    traj = sample_trajectory(pot, pos, cell, sp, spec.masses(sp), [temp],
                             n_frames, timestep=2.0, stride=3,
                             equilibration_steps=25, seed=seed)
    return Dataset.from_trajectory(f"Cu@{temp:.0f}K", traj)


class FilterWatcher(Callback):
    """Trainer-event-API demo: watch the Kalman memory factor decay as
    the same filter digests each data arrival."""

    def __init__(self):
        self.steps = 0
        self.lam = None

    def on_step_end(self, info):
        self.steps += 1
        self.lam = info.stats.get("lambda", self.lam)


def main() -> None:
    arrivals = [(400.0, 0), (800.0, 1), (1200.0, 2)]
    datasets = {t: sample_at(t, 20, seed) for t, seed in arrivals}

    cfg = DeePMDConfig.scaled_down(rcut=4.0, nmax=18)
    model = DeePMD.for_dataset(datasets[400.0], cfg, seed=1)
    optimizer = make_optimizer("fekf", model, blocksize=2048)
    watcher = FilterWatcher()

    def report(stage: str) -> None:
        rmse = {t: model.evaluate_rmse(ds, max_frames=10)["total_rmse"]
                for t, ds in datasets.items()}
        cells = "  ".join(f"{t:.0f}K: {v:.3f}" for t, v in rmse.items())
        print(f"{stage:28s} {cells}")

    print("total (E+F) RMSE per temperature regime:")
    report("untrained")
    for temp, _ in arrivals:
        Trainer(model, optimizer, datasets[temp], None,
                batch_size=4, seed=0).run(max_epochs=4, callbacks=[watcher])
        report(f"after fine-tune on {temp:.0f}K")

    print(f"\nFilter digested {watcher.steps} minibatches across all three "
          f"arrivals (memory factor lambda now {watcher.lam:.4f}).")
    print("The same filter state carried through all three arrivals: no "
          "hyperparameter retuning, no optimizer reset -- the paper's "
          "'one step toward online training'.")


if __name__ == "__main__":
    main()
