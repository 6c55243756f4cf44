"""The step-by-step optimization presets of Figure 7.

===========  ======================================================
preset       enables
===========  ======================================================
baseline     eager primitives everywhere, framework-style P update
opt1         + hand-derived descriptor/environment kernel (the
             paper's "substitute Autograd with handwritten kernels")
opt2         + fused elementwise layer kernels (the ``torch.compile``
             analog)
opt3         + fused P-update kernel with cached P g reuse
===========  ======================================================

Opt1 is every :class:`~repro.model.network.DeePMD`'s descriptor; the
baseline's autograd-primitive descriptor exists only here, as
:class:`BaselineDeePMD`.  ``preset.optimizer(model, ...)`` builds an
optimizer on the preset's model class and Kalman backend, and
``preset.context()`` switches on its layer fusion for the duration.
"""

from __future__ import annotations

import contextlib
import copy
from dataclasses import dataclass, replace

from ..autograd import fused_kernels
from ..model.environment import environment_graph
from ..model.network import DeePMD
from ..optim.ekf import FEKF
from ..optim.kalman import KalmanConfig


class BaselineDeePMD(DeePMD):
    """The Figure 7 baseline model: its training graph builds the
    descriptor environment from autograd primitives, so ``grad`` sweeps
    every op of it (the framework's Autograd, before Opt1).  Inference
    (``predict``) stays graph-free."""

    environment = staticmethod(environment_graph)


@dataclass(frozen=True)
class Preset:
    """One optimization level."""

    name: str
    model_class: type
    fused_layers: bool
    fused_p_update: bool

    @contextlib.contextmanager
    def context(self):
        """Activate the layer-fusion flag for the duration."""
        with fused_kernels(self.fused_layers):
            yield

    def kalman_config(self, **overrides) -> KalmanConfig:
        """The preset's Kalman backend; an override that names no
        ``KalmanConfig`` field raises ``TypeError``."""
        return replace(KalmanConfig(fused_update=self.fused_p_update), **overrides)

    def model(self, model: DeePMD) -> DeePMD:
        """``model`` when it is already of the preset's class, else a copy
        of it (same weights, stats and bias) that is."""
        if type(model) is self.model_class:
            return model
        twin = copy.deepcopy(model)
        twin.__class__ = self.model_class
        return twin

    def optimizer(self, model: DeePMD, cls: type = FEKF, seed: int = 0, **kalman):
        """An EKF optimizer ``cls`` over ``self.model(model)`` with
        ``self.kalman_config(**kalman)``.  It trains ``opt.model``, which
        is a copy when ``model`` is of another class."""
        return cls(self.model(model), self.kalman_config(**kalman), seed=seed)


BASELINE = Preset("baseline", BaselineDeePMD, fused_layers=False, fused_p_update=False)
OPT1 = Preset("opt1", DeePMD, fused_layers=False, fused_p_update=False)
OPT2 = Preset("opt2", DeePMD, fused_layers=True, fused_p_update=False)
OPT3 = Preset("opt3", DeePMD, fused_layers=True, fused_p_update=True)

PRESETS: dict[str, Preset] = {p.name: p for p in (BASELINE, OPT1, OPT2, OPT3)}
PRESET_ORDER = ["baseline", "opt1", "opt2", "opt3"]
