"""repro.online -- closed-loop online learning against live traffic.

The paper's headline claim -- one DeePMD model trained in minutes -- is
a *step towards online learning*: training fast enough that the model
improving and the model serving are the same running system.  This
package closes that loop: the DP-GEN phases (explore -> select -> label
-> train) run as concurrent stages connected by bounded queues, wrapped
around a live :class:`repro.serve.InferenceService` that the learner
owns, with labels appended to a
:class:`~repro.data.framestore.ShardedFrameStore`:

    store = ShardedFrameStore.create("labels/", species=species, cell=cell)
    learner = OnlineLearner(ensemble, reference, species, masses, cell,
                            label_store=store, holdout=test_set,
                            initial_data=train_set)
    result = learner.run(start_positions)   # explore/gate/label/train/swap
    learner.save_state("ckpt/")             # pause: one checkpoint directory
                                            # (repro.optim.checkpoint) ...

    # ... and resume bit-exactly: a learner over the same store (or a
    # copy of its directory), no initial_data, then the checkpoint
    resumed = OnlineLearner(ensemble, reference, species, masses, cell,
                            label_store=ShardedFrameStore.open("labels/", "a"),
                            holdout=test_set)
    resumed.load_state("ckpt/")

The stage objects (:class:`Explorer`, :class:`UncertaintyGate`,
:class:`Labeler`, :class:`IncrementalTrainer`) are public: called one
after another on one thread they are the synchronous round.
"""

from .ledger import LabelLedger, SwapRecord
from .loop import OnlineConfig, OnlineLearner, OnlineResult
from .stages import (
    Explorer,
    GateDecision,
    IncrementalTrainer,
    Labeler,
    UncertaintyGate,
)

__all__ = [
    "OnlineConfig",
    "OnlineLearner",
    "OnlineResult",
    "Explorer",
    "GateDecision",
    "UncertaintyGate",
    "Labeler",
    "IncrementalTrainer",
    "LabelLedger",
    "SwapRecord",
]
