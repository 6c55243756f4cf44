"""repro.train -- training loop, convergence targets, metrics."""

from .callbacks import Callback, ConsoleCallback, JsonlCallback, StepInfo
from .metrics import epochs_to_error, read_history, summarize, write_history
from .trainer import EpochRecord, TargetCriterion, Trainer, TrainResult

__all__ = [
    "Callback",
    "ConsoleCallback",
    "JsonlCallback",
    "StepInfo",
    "Trainer",
    "TrainResult",
    "EpochRecord",
    "TargetCriterion",
    "write_history",
    "read_history",
    "epochs_to_error",
    "summarize",
]
