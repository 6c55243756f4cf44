"""Table 4 -- FEKF(bs 32) vs Adam(bs 1): convergence ratio and RMSE.

For each system: train Adam bs1 to its best total RMSE within the epoch
budget; train FEKF bs32 to the same target; report the epoch convergence
ratio (FEKF/Adam; paper reports 0.07-0.23) and the train/test RMSE of
both optimizers (paper: FEKF slightly lower, no generalization gap).
"""

from __future__ import annotations

from ..optim.ekf import FEKF
from ..train.trainer import TargetCriterion, Trainer
from .common import Report, experiment_setup, fast_kalman, parse_systems, scaled_adam


def run(
    systems: str | None = None,
    batch_size: int = 32,
    adam_epochs: int = 40,
    fekf_epochs: int = 20,
    frames_per_temperature: int = 48,
    seed: int = 0,
) -> Report:
    report = Report(
        experiment="Table 4",
        title=f"convergence ratio and RMSE: FEKF bs{batch_size} vs Adam bs1",
        headers=[
            "System",
            "Adam epochs",
            "conv. ratio",
            "Adam RMSE train/test",
            "FEKF RMSE train/test",
            "gap(FEKF)",
        ],
        paper_reference="Table 4: ratios 0.07-0.23; FEKF RMSE <= Adam; small generalization gap",
    )
    for system in parse_systems(systems):
        setup = experiment_setup(system, frames_per_temperature=frames_per_temperature, seed=seed)

        model_a = setup.model(seed=1)
        adam = scaled_adam(model_a, setup.train.n_frames, adam_epochs)
        res_a = Trainer(model_a, adam, setup.train, setup.test, batch_size=1, seed=seed).run(
            max_epochs=adam_epochs
        )
        target = res_a.best_total("train")
        adam_epochs_used = next(
            r.epoch for r in res_a.history if r.train_total <= target * 1.001
        )
        best_a = min(res_a.history, key=lambda r: r.train_total)

        model_f = setup.model(seed=1)
        fekf = FEKF(model_f, fast_kalman(), seed=seed)
        res_f = Trainer(
            model_f, fekf, setup.train, setup.test, batch_size=batch_size, seed=seed
        ).run(max_epochs=fekf_epochs, target=TargetCriterion(target, metric="total"))
        fekf_epochs_used = (
            res_f.epochs_to_target if res_f.converged else fekf_epochs
        )
        best_f = min(res_f.history, key=lambda r: r.train_total)

        ratio = fekf_epochs_used / adam_epochs_used
        report.add_row(
            system,
            adam_epochs_used,
            f"{ratio:.3f}" + ("" if res_f.converged else "*"),
            f"{best_a.train_total:.4f}/{best_a.test_total:.4f}",
            f"{best_f.train_total:.4f}/{best_f.test_total:.4f}",
            f"{abs(best_f.test_total - best_f.train_total):.4f}",
        )
    report.notes.append("RMSE = energy RMSE (eV/atom) + force RMSE (eV/A), the paper's accuracy measure")
    report.notes.append("* = FEKF epoch budget exhausted before reaching the Adam target")
    return report
