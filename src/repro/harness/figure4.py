"""Figure 4 -- effect of the quasi-learning-rate factor on convergence.

Trains FEKF at one batch size under three step scalings -- 1, sqrt(bs)
(the paper's Eq. 2 choice) and bs -- and reports the energy-RMSE
trajectory.  The reproduction target: sqrt(bs) converges fastest/lowest.
"""

from __future__ import annotations

import numpy as np

from ..optim.ekf import FEKF
from ..train.trainer import Trainer
from .common import Report, experiment_setup, fast_kalman


def run(
    system: str = "Cu",
    batch_size: int = 32,
    epochs: int = 8,
    frames_per_temperature: int = 48,
    seed: int = 0,
) -> Report:
    setup = experiment_setup(system, frames_per_temperature=frames_per_temperature, seed=seed)
    scales = {
        "1": 1.0,
        "sqrt(bs)": float(np.sqrt(batch_size)),
        "bs": float(batch_size),
    }
    report = Report(
        experiment="Figure 4",
        title=f"quasi-learning-rate factor, {system}, FEKF bs {batch_size}",
        headers=["factor"] + [f"epoch {e}" for e in range(1, epochs + 1)],
        paper_reference="Figure 4: sqrt(bs) factor converges fastest",
    )
    for label, scale in scales.items():
        model = setup.model(seed=1)
        opt = FEKF(model, fast_kalman(), step_scale=scale, seed=seed)
        trainer = Trainer(
            model, opt, setup.train, setup.test, batch_size=batch_size, seed=seed
        )
        res = trainer.run(max_epochs=epochs)
        report.add_row(label, *[f"{r.train_energy_rmse:.4f}" for r in res.history])
    return report
