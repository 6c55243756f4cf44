"""repro.model -- the DeePMD network and its descriptor machinery."""

from .config import DeePMDConfig
from .environment import (
    DescriptorBatch,
    EnvStats,
    compute_stats,
    environment_fused,
    environment_np,
    identity_stats,
    make_batch,
)
from .ensemble import EnsemblePrediction, ModelEnsemble
from .network import DeePMD, EnergyForces
from .params import ParamEntry, ParamStore
from .session import (
    InferenceSession,
    ModelSession,
    Prediction,
    frame_fingerprint,
    frames_to_batch,
)

__all__ = [
    "DeePMDConfig",
    "DeePMD",
    "EnergyForces",
    "ModelEnsemble",
    "EnsemblePrediction",
    "InferenceSession",
    "ModelSession",
    "Prediction",
    "frames_to_batch",
    "frame_fingerprint",
    "DescriptorBatch",
    "EnvStats",
    "compute_stats",
    "identity_stats",
    "make_batch",
    "environment_fused",
    "environment_np",
    "ParamStore",
    "ParamEntry",
]
