"""Table 5 -- distributed FEKF scaling on the Cu system.

Configurations mirror the paper's ladder (RLEKF bs1 on 1 GPU, FEKF at
growing batch sizes on 1/4/16 GPUs), with batch sizes scaled down to match
our dataset volume.  Two quantities are reported per configuration:

* **time to 1.5x baseline accuracy** (the paper's Table 5 criterion),
  with the baseline taken from the RLEKF run's first data pass;
* **seconds per data pass** and its speedup over RLEKF -- the quantity
  the paper's 54x/72x/93x ladder converges to once datasets are large
  enough that every configuration needs a comparable number of passes
  (see EXPERIMENTS.md for the regime discussion).

Distributed times are simulated wall clock: max-rank measured compute +
alpha-beta-modeled ring-allreduce communication + Kalman update time.
"""

from __future__ import annotations

from ..optim.ekf import FEKF, RLEKF
from ..optim.kalman import KalmanConfig
from ..parallel.trainer import DistributedFEKF
from ..train.trainer import TargetCriterion, Trainer
from .common import Report, experiment_setup, fast_kalman


def run(
    system: str = "Cu",
    configs: tuple[tuple[int, int], ...] = ((32, 1), (128, 4), (512, 16)),
    frames_per_temperature: int = 250,
    rlekf_epochs: int = 2,
    fekf_epochs: int = 20,
    accuracy_slack: float = 1.5,
    seed: int = 0,
) -> Report:
    """``configs`` is a ladder of (batch size, #GPUs) pairs."""
    setup = experiment_setup(system, frames_per_temperature=frames_per_temperature, seed=seed)
    report = Report(
        experiment="Table 5",
        title=f"distributed FEKF on {system} ({setup.train.n_frames} train frames)",
        headers=[
            "config",
            "best RMSE",
            "time to 1.5x base (s)",
            "s per data pass",
            "per-pass speedup",
            "comm MB/rank",
        ],
        paper_reference="Table 5: RLEKF 26136s(1x) -> FEKF 576s(54x) -> 360s(72x) -> 281s(93x)",
    )

    # baseline accuracy: what RLEKF reaches after its first data pass
    model = setup.model(seed=1)
    rlekf = RLEKF(model, fast_kalman(), seed=seed)
    res0 = Trainer(
        model, rlekf, setup.train, setup.test, batch_size=1, seed=seed,
        evals_per_epoch=8,
    ).run(max_epochs=rlekf_epochs)
    first_pass = [r for r in res0.history if r.epoch <= 1.0]
    base_rmse = min(r.train_total for r in first_pass)
    target_value = base_rmse * accuracy_slack
    target = TargetCriterion(target_value, metric="total")
    hit0 = next(r for r in res0.history if r.train_total <= target_value)
    pass0 = res0.total_train_time / res0.history[-1].epoch
    report.add_row(
        "RLEKF bs1 (1 GPU)",
        f"{min(r.train_total for r in res0.history):.4f}",
        f"{hit0.train_time:.1f}",
        f"{pass0:.1f}",
        "1x",
        "0",
    )

    for bs, gpus in configs:
        model = setup.model(seed=1)
        kcfg = KalmanConfig.for_batch_size(bs, blocksize=2048)
        if gpus == 1:
            opt = FEKF(model, kcfg, seed=seed)
        else:
            opt = DistributedFEKF(model, world_size=gpus, kalman_cfg=kcfg, seed=seed)
        res = Trainer(
            model, opt, setup.train, setup.test, batch_size=bs, seed=seed,
            evals_per_epoch=max(setup.train.n_frames // (bs * 2), 1),
        ).run(max_epochs=fekf_epochs, target=target)

        if gpus == 1:
            t = res.wall_time_to_target if res.converged else res.total_train_time
            per_pass = res.total_train_time / res.history[-1].epoch
            comm = 0.0
        else:
            # simulated wall: scale measured totals by target fraction
            frac = (
                (res.wall_time_to_target / res.total_train_time)
                if res.converged and res.total_train_time > 0
                else 1.0
            )
            t = opt.timing.total_s * frac
            per_pass = opt.timing.total_s / res.history[-1].epoch
            comm = opt.comm.ledger.bytes_sent_per_rank / 1e6
        tag = "" if res.converged else "+"
        label = f"FEKF bs{bs} ({gpus} GPU{'s' if gpus > 1 else ''})"
        report.add_row(
            label,
            f"{min(r.train_total for r in res.history):.4f}",
            f"{t:.1f}{tag}",
            f"{per_pass:.1f}",
            f"{pass0 / max(per_pass, 1e-9):.0f}x",
            f"{comm:.2f}",
        )
    report.notes.append(
        "distributed rows use simulated wall clock (max-rank compute + "
        "modeled comm + KF); + = 1.5x-baseline target not met in budget"
    )
    report.notes.append(
        "baseline accuracy = RLEKF after one data pass; the per-pass "
        "speedup ladder is the paper's 54x/72x/93x analog"
    )
    return report
