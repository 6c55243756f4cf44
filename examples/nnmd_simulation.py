"""Close the loop: train a model, then run MD *with* the neural network.

This is what the minutes-scale training enables (the paper's motivation):
label configurations with the expensive reference method, train a DeePMD
surrogate fast, and drive long MD with the surrogate.  We compare the NN
potential's trajectory statistics against the reference potential.

Run:  python examples/nnmd_simulation.py
"""

import numpy as np

from repro import DeePMD, DeePMDCalculator, DeePMDConfig, FEKF, KalmanConfig, Trainer, generate_dataset
from repro.data import SYSTEMS
from repro.md import LangevinIntegrator, temperature


def main() -> None:
    print("1) Label Cu configurations with the reference potential...")
    data = generate_dataset("Cu", frames_per_temperature=24, size="small",
                            equilibration_steps=20, stride=3)
    train, test = data.split(0.8, seed=0)

    print("2) Train the surrogate with FEKF...")
    cfg = DeePMDConfig.scaled_down(rcut=4.0, nmax=18)
    model = DeePMD.for_dataset(train, cfg, seed=1)
    opt = FEKF(model, KalmanConfig(blocksize=2048, fused_update=True))
    Trainer(model, opt, train, test, batch_size=8, seed=0).run(max_epochs=8)
    rmse = model.evaluate_rmse(test)
    print(f"   surrogate test RMSE: E {rmse['energy_rmse']:.4f} eV/atom, "
          f"F {rmse['force_rmse']:.4f} eV/A")

    print("3) Run 500 fs of Langevin MD with the NN potential at 500 K...")
    spec = SYSTEMS["Cu"]
    pos, cell, sp, reference = spec.build("small")
    masses = spec.masses(sp)
    calc = DeePMDCalculator(model, sp)

    def trajectory(potential, label):
        integ = LangevinIntegrator(potential, masses, cell, timestep=2.0,
                                   temperature=500.0, friction=0.02,
                                   rng=np.random.default_rng(3))
        st = integ.initialize(pos, temp=500.0)
        energies, temps = [], []

        def collect(s):
            energies.append(s.potential_energy / len(pos))
            temps.append(temperature(s.velocities, masses))

        integ.run(st, 250, callback=collect, callback_every=5)
        e = np.array(energies[10:])
        t = np.array(temps[10:])
        print(f"   {label:10s} <E/atom> = {e.mean():8.4f} eV  "
              f"(std {e.std():.4f})   <T> = {t.mean():6.1f} K")
        return e.mean()

    e_nn = trajectory(calc, "NN model")
    e_ref = trajectory(reference, "reference")
    print(f"\n   per-atom energy offset NN vs reference: {abs(e_nn - e_ref):.4f} eV")
    print("   (the NN trajectory samples the same thermodynamic state)")


if __name__ == "__main__":
    main()
