"""Concurrent (active) learning: the full online-learning vision.

Minutes-scale FEKF training makes the DP-GEN-style loop practical: drive
MD with the current surrogate, let an ensemble flag configurations it is
unsure about, label only those with the (expensive) reference method, and
fine-tune the committee -- over and over, climbing a temperature ladder.
Here the loop runs closed and concurrent (``repro.online.OnlineLearner``):
the stages run on their own threads around a live inference service,
labels are appended to an on-disk frame store, and a retrained committee
is hot-swapped into the service whenever it beats the served one on
held-out force RMSE.

Run:  python examples/active_learning.py
"""

import tempfile

from repro.data import SYSTEMS, ShardedFrameStore, generate_dataset
from repro.model import DeePMDConfig, ModelEnsemble
from repro.online import OnlineConfig, OnlineLearner


def main() -> None:
    print("Seeding with a small labeled dataset...")
    data = generate_dataset("Cu", frames_per_temperature=12, size="small",
                            equilibration_steps=15, stride=3)
    train, test = data.split(0.8, seed=0)
    cfg = DeePMDConfig.scaled_down(rcut=4.0, nmax=18)
    ensemble = ModelEnsemble.for_dataset(train, cfg, n_models=3, seed=1)

    spec = SYSTEMS["Cu"]
    _, cell, sp, reference = spec.build("small")
    with tempfile.TemporaryDirectory() as tmp, ShardedFrameStore.create(
        tmp, species=sp, cell=cell
    ) as store, OnlineLearner(  # each member trains on its own rank
        ensemble, reference, sp, spec.masses(sp), cell,
        label_store=store, holdout=test,
        cfg=OnlineConfig(md_steps=100, sample_every=10, epochs_per_round=2,
                         max_new_frames=8, target_swaps=None, max_segments=2),
        initial_data=train,  # warm start: appended to the store, trained once
        seed=0,
    ) as learner:
        ladder = [400.0, 600.0, 800.0, 1000.0]
        print(f"{'T(K)':>6} {'segs':>5} {'cand':>5} {'kept':>5} {'rounds':>6} "
              f"{'swaps':>5} {'served RMSE':>11} {'#labeled':>9}")
        for temp in ladder:
            # two exploration segments per rung, each rung walking from a
            # seed configuration with the weights of the last swap
            result = learner.run(train.positions[0], temperature=temp)
            ledger = result.ledger
            print(f"{temp:>6.0f} {result.segments:>5} {ledger['candidates']:>5} "
                  f"{ledger['labeled']:>5} {result.trained_rounds:>6} "
                  f"{len(learner.swaps):>5} {result.served_rmse:>11.4f} "
                  f"{store.n_frames:>9}")

    print("\nEvery swap lowered the served held-out force RMSE; the gate "
          "skipped the candidates the committee already agrees on, and each "
          "retraining took seconds -- which is what makes running this loop "
          "20-100 times viable.")


if __name__ == "__main__":
    main()
