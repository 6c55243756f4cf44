"""repro.optim -- optimizers: Adam/SGD baselines and the EKF family.

Construct by name through the single factory surface::

    from repro.optim import make_optimizer
    opt = make_optimizer("fekf", model, blocksize=2048)

Every optimizer satisfies the :class:`Optimizer` protocol
(``step_batch`` / ``state_dict`` / ``load_state_dict`` / ``hyperparams``).
"""

from ..runtime import FaultInjector, TaskResult, WorkerTelemetry
from .base import OPTIMIZER_NAMES, Optimizer, make_optimizer
from .blocks import Block, block_shapes, p_memory_bytes, split_blocks, validate_blocks
from .checkpoint import CheckpointError, LegacyCheckpointError, load_state, save_state
from .ekf import FEKF, NaiveEKF, RLEKF, UpdateStats
from .first_order import SGD, Adam, ExponentialDecay, FirstOrderOptimizer, LossConfig
from .kalman import KalmanConfig, KalmanState
from .worker import GradientWorker, ShardResult, WorkerSpec, error_signs

__all__ = [
    "Optimizer",
    "OPTIMIZER_NAMES",
    "make_optimizer",
    "Block",
    "split_blocks",
    "block_shapes",
    "validate_blocks",
    "p_memory_bytes",
    "KalmanConfig",
    "KalmanState",
    "FEKF",
    "RLEKF",
    "NaiveEKF",
    "UpdateStats",
    "GradientWorker",
    "WorkerSpec",
    "ShardResult",
    "TaskResult",
    "WorkerTelemetry",
    "FaultInjector",
    "error_signs",
    "Adam",
    "SGD",
    "FirstOrderOptimizer",
    "ExponentialDecay",
    "LossConfig",
    "save_state",
    "load_state",
    "CheckpointError",
    "LegacyCheckpointError",
]
