"""repro -- a from-scratch reproduction of "Training one DeePMD Model in
Minutes: a Step towards Online Learning" (PPoPP '24).

The package builds the whole stack on numpy: a double-backward autograd
engine, a classical-MD data generator standing in for ab-initio labels,
the DeePMD network with its symmetry-preserving descriptor, the FEKF /
RLEKF / Naive-EKF Kalman-filter optimizers, a simulated multi-GPU
data-parallel trainer, and a harness regenerating every table and figure
of the paper's evaluation.

Quickstart::

    from repro import generate_dataset, DeePMD, DeePMDConfig, Trainer, make_optimizer

    data = generate_dataset("Cu", frames_per_temperature=32, size="small")
    train, test = data.split(0.8)
    model = DeePMD.for_dataset(train, DeePMDConfig.scaled_down(rcut=4.0))
    opt = make_optimizer("fekf", model, blocksize=2048, fused_update=True)
    Trainer(model, opt, train, test, batch_size=32).run(max_epochs=10)
    print(model.evaluate_rmse(test))
"""

from .heap import keep_freed_pages

keep_freed_pages()  # before anything allocates; see repro.heap

from . import telemetry  # noqa: E402
from .autograd import KernelCounter, Tensor, grad, no_grad
from .data import (
    BatchLoader,
    Dataset,
    FrameSource,
    SYSTEMS,
    ShardedFrameStore,
    StreamingLoader,
    generate_dataset,
    make_loader,
    open_source,
)
from .model import DeePMD, DeePMDConfig, make_batch
from .model.calculator import DeePMDCalculator
from .model.session import InferenceSession, ModelSession, Prediction
from .optim import (
    FEKF,
    Adam,
    KalmanConfig,
    NaiveEKF,
    Optimizer,
    RLEKF,
    SGD,
    load_state,
    make_optimizer,
    save_state,
)
from .online import (
    Explorer,
    IncrementalTrainer,
    Labeler,
    OnlineConfig,
    OnlineLearner,
    UncertaintyGate,
)
from .parallel import DistributedFEKF, SimCommunicator
from .serve import InferenceService, ServeConfig
from .train import Callback, ConsoleCallback, TargetCriterion, Trainer, TrainResult

__version__ = "1.0.0"

__all__ = [
    "Tensor",
    "grad",
    "no_grad",
    "KernelCounter",
    "Dataset",
    "BatchLoader",
    "StreamingLoader",
    "make_loader",
    "open_source",
    "FrameSource",
    "ShardedFrameStore",
    "SYSTEMS",
    "generate_dataset",
    "DeePMD",
    "DeePMDConfig",
    "DeePMDCalculator",
    "make_batch",
    "FEKF",
    "RLEKF",
    "NaiveEKF",
    "Adam",
    "SGD",
    "KalmanConfig",
    "Optimizer",
    "make_optimizer",
    "save_state",
    "load_state",
    "InferenceSession",
    "ModelSession",
    "Prediction",
    "InferenceService",
    "ServeConfig",
    "OnlineLearner",
    "OnlineConfig",
    "Explorer",
    "UncertaintyGate",
    "Labeler",
    "IncrementalTrainer",
    "DistributedFEKF",
    "SimCommunicator",
    "Trainer",
    "TrainResult",
    "TargetCriterion",
    "Callback",
    "ConsoleCallback",
    "telemetry",
    "__version__",
]
