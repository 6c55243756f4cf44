"""The one optimizer surface: protocol + ``make_optimizer`` factory.

Every optimizer in the repo -- the EKF family, the first-order baselines,
and the simulated data-parallel trainer -- satisfies one protocol:

* ``step_batch(batch) -> dict`` -- one training step on a minibatch;
* ``state_dict() / load_state_dict(state)`` -- full resumable state as a
  flat ``{key: ndarray}`` mapping (what :func:`save_state` serializes);
* ``hyperparams`` -- a readable dict of the knobs that define the run.

:func:`save_state` / :func:`load_state` are the protocol's one-file npz
persistence: ``model/<key>`` entries plus whatever flat arrays the
optimizer's ``state_dict`` reports.  They subsume the retired
``repro.optim.checkpoint`` helpers (same on-disk layout, so old
checkpoint files remain loadable).

``make_optimizer(name, model, **overrides)`` is the single construction
entry point: experiment code names the algorithm and passes flat keyword
overrides; the factory routes each override to the right place
(``KalmanConfig`` field, learning-rate schedule, constructor keyword)::

    opt = make_optimizer("fekf", model, blocksize=2048, fused_update=True)
    opt = make_optimizer("adam", model, lr0=1e-3, decay_steps=500)

Overrides that fit nowhere raise ``TypeError`` up front, so a typo'd
hyperparameter fails loudly instead of silently training the default.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from ..model.network import DeePMD
from .ekf import FEKF, NaiveEKF, RLEKF
from .first_order import SGD, Adam, ExponentialDecay, LossConfig
from .kalman import KalmanConfig

__all__ = [
    "Optimizer",
    "OPTIMIZER_NAMES",
    "make_optimizer",
    "save_state",
    "load_state",
    "save_ensemble_state",
    "load_ensemble_state",
]


@runtime_checkable
class Optimizer(Protocol):
    """What every repro optimizer provides (structural, not nominal)."""

    name: str

    def step_batch(self, batch) -> dict[str, float]: ...

    def state_dict(self) -> dict[str, np.ndarray]: ...

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None: ...

    @property
    def hyperparams(self) -> dict: ...


# ---------------------------------------------------------------------------
# one-file persistence over the protocol (online learning across sessions)
# ---------------------------------------------------------------------------
def save_state(path: str, model: DeePMD, optimizer: "Optional[Optimizer]" = None) -> None:
    """Write model weights (+ stats/bias) and, optionally, the full
    optimizer state (via its ``state_dict()``) to one npz at ``path``.

    FEKF's power comes from its filter state (P, lambda): resuming a
    retraining session must restore the *optimizer*, not just the
    weights, which is why this persists both in one file.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    payload: dict[str, np.ndarray] = {}
    for k, v in model.state_dict().items():
        payload[f"model/{k}"] = v
    if optimizer is not None:
        opt_state = optimizer.state_dict()
        clash = [k for k in opt_state if k.startswith("model/")]
        if clash:
            raise ValueError(f"optimizer state keys collide with model/: {clash}")
        payload.update(opt_state)
    np.savez_compressed(path, **payload)


def load_state(path: str, model: DeePMD, optimizer: "Optional[Optimizer]" = None) -> None:
    """Restore a file written by :func:`save_state` into an
    already-constructed model (and optimizer, when present in the file).

    The optimizer's structure must match the checkpoint (same network and
    configuration); its ``load_state_dict`` raises on mismatches.
    """
    with np.load(path, allow_pickle=False) as z:
        model.load_state_dict(
            {k[len("model/"):]: z[k] for k in z.files if k.startswith("model/")}
        )
        if optimizer is None:
            return
        opt_state = {k: z[k] for k in z.files if not k.startswith("model/")}
        if not opt_state:
            raise KeyError(f"{path} holds no optimizer state")
        optimizer.load_state_dict(opt_state)


def save_ensemble_state(
    path: str,
    models: "Sequence[DeePMD]",
    optimizers: "Optional[Sequence[Optimizer]]" = None,
) -> None:
    """One-file npz persistence for a whole committee: every member's
    model weights and (optionally) its persistent optimizer state, under
    ``member<k>/`` key prefixes.

    This is the checkpoint surface of the online-learning loop: each
    ensemble member trains under its *own* persistent FEKF filter, and a
    resumed loop must restore every (weights, P, lambda, RNG) tuple --
    the filter state is where the fast convergence lives.
    """
    if optimizers is not None and len(optimizers) != len(models):
        raise ValueError(
            f"{len(optimizers)} optimizer states for {len(models)} models"
        )
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    payload: dict[str, np.ndarray] = {"__members__": np.array(len(models))}
    for k, model in enumerate(models):
        for key, value in model.state_dict().items():
            payload[f"member{k}/model/{key}"] = value
        if optimizers is not None:
            for key, value in optimizers[k].state_dict().items():
                payload[f"member{k}/{key}"] = value
    np.savez_compressed(path, **payload)


def load_ensemble_state(
    path: str,
    models: "Sequence[DeePMD]",
    optimizers: "Optional[Sequence[Optimizer]]" = None,
) -> None:
    """Restore a file written by :func:`save_ensemble_state` into
    already-constructed members (and their optimizers, when given)."""
    with np.load(path, allow_pickle=False) as z:
        n = int(z["__members__"]) if "__members__" in z.files else 0
        if n != len(models):
            raise ValueError(
                f"checkpoint holds {n} members for {len(models)} models"
            )
        for k, model in enumerate(models):
            prefix = f"member{k}/"
            member = {
                key[len(prefix):]: z[key]
                for key in z.files
                if key.startswith(prefix)
            }
            model.load_state_dict(
                {
                    key[len("model/"):]: value
                    for key, value in member.items()
                    if key.startswith("model/")
                }
            )
            if optimizers is None:
                continue
            opt_state = {
                key: value
                for key, value in member.items()
                if not key.startswith("model/")
            }
            if not opt_state:
                raise KeyError(f"{path} holds no optimizer state for member {k}")
            optimizers[k].load_state_dict(opt_state)


_KALMAN_FIELDS = {f.name for f in dataclasses.fields(KalmanConfig)}
_LOSS_FIELDS = {f.name for f in dataclasses.fields(LossConfig)}
_SCHEDULE_ALIASES = {"lr0": "lr0", "decay_rate": "rate", "decay_steps": "steps"}

_EKF_CLASSES = {"fekf": FEKF, "rlekf": RLEKF, "naive_ekf": NaiveEKF}
_EKF_CTOR_KEYS = {"n_force_splits", "reuse_force_graph", "step_scale", "seed"}
_DISTRIBUTED_CTOR_KEYS = {
    "n_force_splits", "reuse_force_graph", "verify_replicas", "cost_model",
    "seed", "executor",
}
_FIRST_ORDER_CLASSES = {"adam": Adam, "sgd": SGD}
_FIRST_ORDER_CTOR_KEYS = {
    "adam": {"beta1", "beta2", "eps", "batch_scale_lr"},
    "sgd": {"momentum", "batch_scale_lr"},
}

#: canonical algorithm names accepted by :func:`make_optimizer`
OPTIMIZER_NAMES = ("fekf", "rlekf", "naive_ekf", "adam", "sgd", "distributed_fekf")

_ALIASES = {
    "naive": "naive_ekf",
    "naiveekf": "naive_ekf",
    "dist_fekf": "distributed_fekf",
    "distributed": "distributed_fekf",
}


def _reject_unknown(name: str, leftover: dict) -> None:
    if leftover:
        raise TypeError(
            f"make_optimizer({name!r}): unknown override(s) {sorted(leftover)}"
        )


def _kalman_config(overrides: dict) -> KalmanConfig:
    """Pop the Kalman settings out of ``overrides``: a pre-built
    ``kalman_cfg``, or flat ``KalmanConfig`` fields (plus ``batch_size``
    for the paper's large-batch guidance), never both."""
    kalman_cfg = overrides.pop("kalman_cfg", None)
    kalman_overrides = {
        k: overrides.pop(k) for k in list(overrides) if k in _KALMAN_FIELDS
    }
    if kalman_cfg is None:
        batch_size = overrides.pop("batch_size", None)
        if batch_size is not None:
            kalman_cfg = KalmanConfig.for_batch_size(batch_size, **kalman_overrides)
        else:
            kalman_cfg = KalmanConfig(**kalman_overrides)
    elif kalman_overrides:
        raise TypeError(
            "pass either kalman_cfg or flat KalmanConfig fields, not both: "
            f"{sorted(kalman_overrides)}"
        )
    return kalman_cfg


def _make_ekf(key: str, model: DeePMD, overrides: dict):
    cls = _EKF_CLASSES[key]
    kalman_cfg = _kalman_config(overrides)
    ctor = {k: overrides.pop(k) for k in list(overrides) if k in _EKF_CTOR_KEYS}
    _reject_unknown(key, overrides)
    return cls(model, kalman_cfg=kalman_cfg, **ctor)


def _make_first_order(key: str, model: DeePMD, overrides: dict):
    cls = _FIRST_ORDER_CLASSES[key]
    schedule = overrides.pop("schedule", None)
    sched_overrides = {
        alias: overrides.pop(alias)
        for alias in list(_SCHEDULE_ALIASES)
        if alias in overrides
    }
    if schedule is None:
        schedule = ExponentialDecay(
            **{_SCHEDULE_ALIASES[k]: v for k, v in sched_overrides.items()}
        )
    elif sched_overrides:
        raise TypeError(
            "pass either schedule or flat schedule fields, not both: "
            f"{sorted(sched_overrides)}"
        )
    loss_cfg = overrides.pop("loss_cfg", None)
    loss_overrides = {
        k: overrides.pop(k) for k in list(overrides) if k in _LOSS_FIELDS
    }
    if loss_cfg is None:
        loss_cfg = LossConfig(**loss_overrides)
    elif loss_overrides:
        raise TypeError(
            "pass either loss_cfg or flat LossConfig fields, not both: "
            f"{sorted(loss_overrides)}"
        )
    ctor = {
        k: overrides.pop(k)
        for k in list(overrides)
        if k in _FIRST_ORDER_CTOR_KEYS[key]
    }
    _reject_unknown(key, overrides)
    return cls(model, schedule=schedule, loss_cfg=loss_cfg, **ctor)


def make_optimizer(name: str, model: DeePMD, **overrides) -> Optimizer:
    """Construct any repro optimizer by algorithm name.

    Parameters
    ----------
    name:
        One of :data:`OPTIMIZER_NAMES` (case-insensitive; a few aliases
        like ``"naive"`` are accepted).
    model:
        The :class:`DeePMD` model the optimizer trains.
    overrides:
        Flat keyword overrides, routed automatically:

        * EKF family -- ``KalmanConfig`` fields (``lambda0``, ``nu``,
          ``blocksize``, ``fused_update``, ...), constructor keywords
          (``n_force_splits``, ``reuse_force_graph``, ``step_scale``,
          ``seed``), a pre-built ``kalman_cfg``, or
          ``batch_size=...`` to apply the paper's large-batch tuning
          guidance;
        * first-order -- schedule fields (``lr0``, ``decay_rate``,
          ``decay_steps``), ``LossConfig`` fields, or class keywords
          (``beta1``, ``momentum``, ``batch_scale_lr``, ...);
        * ``distributed_fekf`` -- ``world_size`` (required), the Kalman
          settings above, and ``n_force_splits``, ``reuse_force_graph``,
          ``verify_replicas``, ``cost_model``, ``seed``, ``executor``.
    """
    key = _ALIASES.get(name.lower().replace("-", "_"), name.lower().replace("-", "_"))
    if key in _EKF_CLASSES:
        return _make_ekf(key, model, dict(overrides))
    if key in _FIRST_ORDER_CLASSES:
        return _make_first_order(key, model, dict(overrides))
    if key == "distributed_fekf":
        from ..parallel.trainer import DistributedFEKF  # avoid import cycle

        overrides = dict(overrides)
        if "world_size" not in overrides:
            raise TypeError("make_optimizer('distributed_fekf') requires world_size=")
        world_size = overrides.pop("world_size")
        kalman_cfg = _kalman_config(overrides)
        ctor = {
            k: overrides.pop(k) for k in list(overrides) if k in _DISTRIBUTED_CTOR_KEYS
        }
        _reject_unknown(key, overrides)
        return DistributedFEKF(model, world_size, kalman_cfg=kalman_cfg, **ctor)
    raise KeyError(
        f"unknown optimizer {name!r}; available: {', '.join(OPTIMIZER_NAMES)}"
    )
