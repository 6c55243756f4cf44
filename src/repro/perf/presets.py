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

Opt1 is every ``DeePMD``'s descriptor and Opt3 every ``KalmanState``'s
P update; the graph descriptor and the dense P update exist only here, as
:class:`BaselineDeePMD` and :class:`DenseKalmanState`.
``preset.optimizer(model, ...)`` builds an optimizer on the preset's
model and filter classes, and ``preset.context()`` switches on its layer
fusion for the duration.
"""

from __future__ import annotations

import contextlib
import copy
from dataclasses import dataclass

import numpy as np

from ..autograd import fused_kernels
from ..autograd.instrument import record_launch
from ..model.environment import environment_graph
from ..model.network import DeePMD
from ..optim.ekf import FEKF
from ..optim.kalman import KalmanConfig, KalmanState


class BaselineDeePMD(DeePMD):
    """The Figure 7 baseline model: its training graph builds the
    descriptor environment from autograd primitives, so ``grad`` sweeps
    every op of it (the framework's Autograd, before Opt1).  Inference
    (``predict``) stays graph-free."""

    environment = staticmethod(environment_graph)


class DenseKalmanState(KalmanState):
    """The P update before Opt3, as a framework runs it: dense blocks, one
    launch and one N_b x N_b temporary per algebraic step (the memory
    behaviour Sec. 5.3 attributes to PyTorch), nothing deferred or folded."""

    fused, defers = False, 0

    @staticmethod
    def _block(n: int, src: np.ndarray | None = None) -> np.ndarray:
        return np.eye(n) if src is None else np.copy(src)

    def _pass(self, i: int, gs: list[np.ndarray]) -> tuple[np.ndarray, tuple]:
        pg = self.p_mats[i] @ gs[0]  # one update per pass: P changes every update
        return pg[:, None], ("p_gemv", pg.nbytes)

    def _downdate(self, pgs: list[np.ndarray], gains: list[float]) -> None:
        for i, (pg, a) in enumerate(zip(pgs, gains)):
            k = a * pg
            record_launch("k_scale", k.nbytes)
            kkt = np.outer(k, k / a)  # the N_b x N_b temporary
            record_launch("kkT_outer", kkt.nbytes)
            p1 = self.p_mats[i] - kkt
            record_launch("p_sub", p1.nbytes)
            p1 = p1 / self.lam
            record_launch("p_scale", p1.nbytes)
            p1 = (p1 + p1.T) / 2.0
            record_launch("p_symmetrize", p1.nbytes)
            self.p_mats[i] = p1

    def _rescale(self, i: int, factor: float) -> None:
        self.p_mats[i] *= factor


@dataclass(frozen=True)
class Preset:
    """One optimization level."""

    name: str
    model_class: type
    fused_layers: bool
    kalman_class: type

    @contextlib.contextmanager
    def context(self):
        """Activate the layer-fusion flag for the duration."""
        with fused_kernels(self.fused_layers):
            yield

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
        ``KalmanConfig(**kalman)`` and a ``self.kalman_class`` filter.  It
        trains ``opt.model``, which is a copy when ``model`` is of another
        class.  The filter class is set on the instance before
        ``cls.__init__`` builds the filter, so a dense preset never maps
        the triangle blocks it would throw away (~0.9 GB at the paper's
        block sizes), and ``opt`` is a plain ``cls``."""
        opt = cls.__new__(cls)
        opt.kalman_class = self.kalman_class
        cls.__init__(opt, self.model(model), KalmanConfig(**kalman), seed=seed)
        return opt


BASELINE = Preset("baseline", BaselineDeePMD, fused_layers=False, kalman_class=DenseKalmanState)
OPT1 = Preset("opt1", DeePMD, fused_layers=False, kalman_class=DenseKalmanState)
OPT2 = Preset("opt2", DeePMD, fused_layers=True, kalman_class=DenseKalmanState)
OPT3 = Preset("opt3", DeePMD, fused_layers=True, kalman_class=KalmanState)

PRESETS: dict[str, Preset] = {p.name: p for p in (BASELINE, OPT1, OPT2, OPT3)}
PRESET_ORDER = ["baseline", "opt1", "opt2", "opt3"]
