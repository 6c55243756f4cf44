"""Rank workers for the inference service.

The serve layer rides the rank runtime (:mod:`repro.runtime`,
:mod:`repro.parallel.executor`) unchanged: a prediction worker is a
plain object declaring its task vocabulary, so it gets the serial /
thread / process backends, the retry-once semantics, the rank-ordered
result collection, the telemetry envelope and the fault-injection hook
for free.

Each rank owns an independent replica of the served model (or committee)
and receives micro-batch *shards*; hot swap reaches workers as a
``set_weights`` broadcast carrying the state-dict payload, which also
makes :meth:`Executor.heal` work verbatim after a crash.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..model.environment import DescriptorBatch
from ..model.network import DeePMD
from ..model.session import InferenceSession, ModelSession
from ..model.ensemble import ModelEnsemble

__all__ = ["PredictWorker", "PredictSpec"]


def session_for_models(models: Sequence[DeePMD], fused_env: bool = True) -> InferenceSession:
    """One model -> :class:`ModelSession`; several -> :class:`ModelEnsemble`
    (committee mean + uncertainty in every response)."""
    models = list(models)
    if not models:
        raise ValueError("need at least one model to serve")
    if len(models) == 1:
        return ModelSession(models[0], fused_env=fused_env)
    return ModelEnsemble(models)


class PredictWorker:
    """Forward-only compute over one session (a rank's replica, or the
    service's own session when it serves as the crash fallback)."""

    #: rank-runtime declarations (see :func:`repro.runtime.run_task`)
    tasks = frozenset({"predict_task", "set_weights"})
    span = "serve.worker_predict"
    compute_tasks = {"predict_task": {}}
    counter = "serve.worker_tasks"

    def __init__(self, session: InferenceSession, rank: int = 0):
        self.session = session
        self.rank = int(rank)

    def predict_task(self, shard: Optional[DescriptorBatch]) -> Optional[dict]:
        """Raw batched forward over this rank's shard (``None`` /
        zero-frame shards short-circuit -- ranks beyond the batch size in
        a small flush simply idle)."""
        if shard is None or shard.batch_size == 0:
            return None
        return self.session.predict_descriptor_batch(shard)

    def set_weights(self, state) -> None:
        """Load a hot-swap payload."""
        self.session.swap(state)


@dataclass
class PredictSpec:
    """Picklable recipe for building rank prediction workers.

    ``build`` deep-copies the models so every rank owns an independent
    replica; after a respawn the service's lazy ``set_weights`` broadcast
    (or :meth:`Executor.heal`) restores the live weights.
    """

    models: list = field(default_factory=list)
    fused_env: bool = True

    def build(self, rank: int = 0) -> PredictWorker:
        replicas = [copy.deepcopy(m) for m in self.models]
        return PredictWorker(
            session_for_models(replicas, fused_env=self.fused_env), rank=rank
        )
