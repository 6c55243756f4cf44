"""Optimizer shoot-out: Adam (bs 1) vs RLEKF (bs 1) vs FEKF (bs 16).

Reproduces the qualitative content of the paper's Figure 7(a) on one
system: the EKF family converges in a couple of epochs where Adam needs
tens, and FEKF amortizes the per-update Kalman cost over the whole batch.

Run:  python examples/compare_optimizers.py [system]
"""

import sys
import time

from repro import Trainer, make_optimizer
from repro.harness.common import experiment_setup, scaled_adam


def run_one(name, setup, factory, batch_size, epochs):
    model = setup.model(seed=1)
    optimizer = factory(model)
    t0 = time.perf_counter()
    result = Trainer(model, optimizer, setup.train, setup.test,
                     batch_size=batch_size, seed=0).run(max_epochs=epochs)
    elapsed = time.perf_counter() - t0
    best = min(result.history, key=lambda r: r.train_total)
    print(f"{name:14s} bs={batch_size:<3d} epochs={epochs:<3d} "
          f"best train E+F RMSE {best.train_total:.4f} (epoch {best.epoch})  "
          f"wall {elapsed:.1f}s")
    return best.train_total


def main() -> None:
    system = sys.argv[1] if len(sys.argv) > 1 else "Cu"
    print(f"System: {system}")
    setup = experiment_setup(system, frames_per_temperature=24)
    ekf = dict(blocksize=2048, fused_update=True)

    run_one("Adam", setup,
            lambda m: scaled_adam(m, setup.train.n_frames, 20), 1, 20)
    run_one("RLEKF", setup,
            lambda m: make_optimizer("rlekf", m, **ekf), 1, 3)
    run_one("FEKF", setup,
            lambda m: make_optimizer("fekf", m, **ekf), 16, 8)
    print("\nExpected shape (paper Fig. 7a): both EKF variants reach a better "
          "RMSE than Adam in a fraction of the epochs; FEKF does it with "
          "16x fewer Kalman updates per data pass than RLEKF.")


if __name__ == "__main__":
    main()
