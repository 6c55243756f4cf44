"""The one optimizer surface: protocol + ``make_optimizer`` factory.

Every optimizer in the repo -- the EKF family, the first-order baselines,
and the simulated data-parallel trainer -- satisfies one protocol:

* ``step_batch(batch) -> dict`` -- one training step on a minibatch;
* ``state_dict() / load_state_dict(state)`` -- full resumable state as a
  flat ``{key: ndarray}`` mapping (what
  :func:`~repro.optim.checkpoint.save_state` stores);
* ``hyperparams`` -- a readable dict of the knobs that define the run.

``make_optimizer(name, model, **overrides)`` is the single construction
entry point: experiment code names the algorithm and passes flat keyword
overrides; the factory routes each override to the right place
(``KalmanConfig`` field, learning-rate schedule, constructor keyword)::

    opt = make_optimizer("fekf", model, blocksize=2048)
    opt = make_optimizer("adam", model, lr0=1e-3, decay_steps=500)

Overrides that fit nowhere raise ``TypeError`` up front, so a typo'd
hyperparameter fails loudly instead of silently training the default.
"""

from __future__ import annotations

import dataclasses
from typing import Protocol, runtime_checkable

import numpy as np

from ..model.network import DeePMD
from .ekf import FEKF, NaiveEKF, RLEKF
from .first_order import SGD, Adam, ExponentialDecay, LossConfig
from .kalman import KalmanConfig

__all__ = [
    "Optimizer",
    "OPTIMIZER_NAMES",
    "make_optimizer",
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


def _pop(overrides: dict, keys) -> dict:
    """The entries of ``overrides`` that ``keys`` names, taken out of it."""
    return {k: overrides.pop(k) for k in list(overrides) if k in keys}


def _config(overrides: dict, name: str, fields, build):
    """Pop a pre-built ``overrides[name]`` or the flat ``fields`` (built
    by ``build``, from none of them for the defaults), never both."""
    given, flat = overrides.pop(name, None), _pop(overrides, fields)
    if given is None:
        return build(flat)
    if flat:
        raise TypeError(f"pass either {name} or its flat fields, not both: {sorted(flat)}")
    return given


def _kalman_config(overrides: dict) -> KalmanConfig:
    """Pop the Kalman settings out of ``overrides``: a pre-built
    ``kalman_cfg``, or flat ``KalmanConfig`` fields (plus ``batch_size``
    for the paper's large-batch guidance), never both."""

    def build(flat: dict) -> KalmanConfig:
        batch_size = overrides.pop("batch_size", None)
        if batch_size is None:
            return KalmanConfig(**flat)
        return KalmanConfig.for_batch_size(batch_size, **flat)

    return _config(overrides, "kalman_cfg", _KALMAN_FIELDS, build)


def _make_ekf(key: str, model: DeePMD, overrides: dict):
    kalman_cfg = _kalman_config(overrides)
    ctor = _pop(overrides, _EKF_CTOR_KEYS)
    _reject_unknown(key, overrides)
    return _EKF_CLASSES[key](model, kalman_cfg=kalman_cfg, **ctor)


def _make_first_order(key: str, model: DeePMD, overrides: dict):
    schedule = _config(
        overrides, "schedule", _SCHEDULE_ALIASES,
        lambda flat: ExponentialDecay(**{_SCHEDULE_ALIASES[k]: v for k, v in flat.items()}),
    )
    loss_cfg = _config(overrides, "loss_cfg", _LOSS_FIELDS, lambda flat: LossConfig(**flat))
    ctor = _pop(overrides, _FIRST_ORDER_CTOR_KEYS[key])
    _reject_unknown(key, overrides)
    return _FIRST_ORDER_CLASSES[key](model, schedule=schedule, loss_cfg=loss_cfg, **ctor)


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
          ``blocksize``, ``coupled_gain``, ...), constructor keywords
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
        ctor = _pop(overrides, _DISTRIBUTED_CTOR_KEYS)
        _reject_unknown(key, overrides)
        return DistributedFEKF(model, world_size, kalman_cfg=kalman_cfg, **ctor)
    raise KeyError(
        f"unknown optimizer {name!r}; available: {', '.join(OPTIMIZER_NAMES)}"
    )
