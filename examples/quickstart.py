"""Quickstart: train a DeePMD model on copper in under a minute with FEKF.

Generates a small Cu dataset with the classical-MD labeler, trains the
scaled-down network with the paper's FEKF optimizer, and reports energy /
force RMSE on a held-out test split.

Run:  python examples/quickstart.py
"""

from repro import ConsoleCallback, DeePMD, DeePMDConfig, Trainer, generate_dataset, make_optimizer


def main() -> None:
    print("Sampling Cu training data (classical-MD ab-initio substitute)...")
    data = generate_dataset("Cu", frames_per_temperature=24, size="small",
                            equilibration_steps=20, stride=3)
    train, test = data.split(0.8, seed=0)
    print(f"  {train.n_frames} train / {test.n_frames} test frames, "
          f"{data.n_atoms} atoms each")

    cfg = DeePMDConfig.scaled_down(rcut=4.0, nmax=18)
    model = DeePMD.for_dataset(train, cfg, seed=1)
    print(f"Model: {model.num_params} parameters "
          f"(embedding {cfg.embedding_widths}, M<={cfg.m_less}, "
          f"fitting {cfg.fitting_widths})")

    # the model's descriptor is always the Opt1 hand-derived kernel;
    # fused_update selects the Opt3 P-update kernel
    optimizer = make_optimizer("fekf", model, blocksize=2048, fused_update=True)
    trainer = Trainer(model, optimizer, train, test, batch_size=8, seed=0)
    print("Training with FEKF (1 energy + 4 force Kalman updates per batch)...")
    result = trainer.run(max_epochs=8, callbacks=[ConsoleCallback()])

    best = min(result.history, key=lambda r: r.train_total)
    print(f"\nDone in {result.total_train_time:.1f}s of optimizer time.")
    print(f"Best epoch {best.epoch}: "
          f"train E/F RMSE {best.train_energy_rmse:.4f}/{best.train_force_rmse:.4f}  "
          f"test {best.test_energy_rmse:.4f}/{best.test_force_rmse:.4f}")


if __name__ == "__main__":
    main()
