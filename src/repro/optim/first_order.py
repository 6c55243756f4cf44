"""First-order baselines: Adam and SGD with the DeePMD loss schedule.

The loss is the standard DeePMD energy+force objective

    L = p_e * mean_b((dE_b / N)^2) + p_f * mean(dF^2)

with prefactors interpolated between start and limit values as the
learning rate decays (the DeePMD-kit convention):

    p(t) = p_limit * (1 - lr/lr0) + p_start * (lr/lr0).

Adam follows the paper's Table 1 protocol: base lr 1e-3 with exponential
(staircase) decay x0.95 every 5000 optimizer steps, and -- for batch sizes
above one -- the "default setting" readjustment of multiplying the learning
rate by sqrt(batch size).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..autograd import Tensor, grad, ops
from ..model.environment import DescriptorBatch
from ..model.network import DeePMD


@dataclass
class LossConfig:
    """Energy/force prefactor schedule (DeePMD defaults)."""

    pe_start: float = 0.02
    pe_limit: float = 1.0
    pf_start: float = 1000.0
    pf_limit: float = 1.0

    def prefactors(self, lr_fraction: float) -> tuple[float, float]:
        """(p_e, p_f) at the given lr/lr0 fraction."""
        f = float(np.clip(lr_fraction, 0.0, 1.0))
        pe = self.pe_limit * (1.0 - f) + self.pe_start * f
        pf = self.pf_limit * (1.0 - f) + self.pf_start * f
        return pe, pf


@dataclass
class ExponentialDecay:
    """Staircase exponential decay: lr(t) = lr0 * rate^(t // steps)."""

    lr0: float = 1e-3
    rate: float = 0.95
    steps: int = 5000

    def lr(self, step: int) -> float:
        return self.lr0 * self.rate ** (step // self.steps)


class FirstOrderOptimizer:
    """Base: computes the DeePMD loss gradient and delegates the update.

    Subclasses implement ``_apply(name, grad_array, lr)``.
    """

    def __init__(
        self,
        model: DeePMD,
        schedule: ExponentialDecay | None = None,
        loss_cfg: LossConfig | None = None,
        batch_scale_lr: bool = True,
    ):
        self.model = model
        self.schedule = schedule or ExponentialDecay()
        self.loss_cfg = loss_cfg or LossConfig()
        self.batch_scale_lr = batch_scale_lr
        self.step_count = 0

    # ------------------------------------------------------------------
    def loss_and_grads(
        self, batch: DescriptorBatch
    ) -> tuple[float, dict[str, np.ndarray], dict[str, float]]:
        """DeePMD loss and its parameter gradients for one batch."""
        model = self.model
        p = model.param_tensors()
        names = model.params.names()
        coords = Tensor(batch.coords, requires_grad=True)
        e = model.energy_graph(coords, batch, p=p)
        (gc,) = grad(ops.tsum(e), [coords], create_graph=True)
        n = batch.n_atoms
        de = ops.mul(ops.sub(e, Tensor(batch.energies)), 1.0 / n)
        df = ops.sub(ops.neg(gc), Tensor(batch.forces))
        lr_frac = self.schedule.lr(self.step_count) / self.schedule.lr0
        pe, pf = self.loss_cfg.prefactors(lr_frac)
        loss = ops.add(
            ops.mul(ops.tmean(ops.mul(de, de)), pe),
            ops.mul(ops.tmean(ops.mul(df, df)), pf),
        )
        grads = grad(loss, [p[name] for name in names])
        stats = {
            "loss": loss.item(),
            "energy_rmse": float(np.sqrt(np.mean(de.data**2))),
            "force_rmse": float(np.sqrt(np.mean(df.data**2))),
            "pe": pe,
            "pf": pf,
        }
        return loss.item(), {n_: g.data for n_, g in zip(names, grads)}, stats

    # ------------------------------------------------------------------
    def step_batch(self, batch: DescriptorBatch) -> dict[str, float]:
        """One optimizer step on a minibatch; returns step statistics."""
        _, grads, stats = self.loss_and_grads(batch)
        lr = self.schedule.lr(self.step_count)
        if self.batch_scale_lr and batch.batch_size > 1:
            lr *= np.sqrt(batch.batch_size)
        for name, g in grads.items():
            self._apply(name, g, lr)
        self.step_count += 1
        stats["lr"] = lr
        return stats

    def _apply(self, name: str, g: np.ndarray, lr: float) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # optimizer protocol: state + hyperparameters
    # ------------------------------------------------------------------
    @property
    def hyperparams(self) -> dict:
        """Readable hyperparameter summary (the ``Optimizer`` protocol)."""
        return {
            "name": getattr(self, "name", type(self).__name__),
            "lr0": self.schedule.lr0,
            "decay_rate": self.schedule.rate,
            "decay_steps": self.schedule.steps,
            "pe_start": self.loss_cfg.pe_start,
            "pe_limit": self.loss_cfg.pe_limit,
            "pf_start": self.loss_cfg.pf_start,
            "pf_limit": self.loss_cfg.pf_limit,
            "batch_scale_lr": self.batch_scale_lr,
        }

    def state_dict(self) -> dict[str, np.ndarray]:
        return {"step_count": np.array(self.step_count)}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        if "step_count" not in state:
            raise KeyError("state holds no optimizer state ('step_count' missing)")
        self.step_count = int(state["step_count"])


class SGD(FirstOrderOptimizer):
    """Plain stochastic gradient descent (optional momentum)."""

    name = "SGD"

    def __init__(self, model: DeePMD, momentum: float = 0.0, **kw):
        super().__init__(model, **kw)
        self.momentum = float(momentum)
        self._velocity: dict[str, np.ndarray] = {}

    def _apply(self, name: str, g: np.ndarray, lr: float) -> None:
        if self.momentum > 0.0:
            v = self._velocity.get(name)
            v = self.momentum * v + g if v is not None else g.copy()
            self._velocity[name] = v
            g = v
        self.model.params[name] = self.model.params[name] - lr * g

    @property
    def hyperparams(self) -> dict:
        return {**super().hyperparams, "momentum": self.momentum}

    def state_dict(self) -> dict[str, np.ndarray]:
        out = super().state_dict()
        for name, v in self._velocity.items():
            out[f"sgd/velocity/{name}"] = v.copy()
        return out

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        super().load_state_dict(state)
        prefix = "sgd/velocity/"
        self._velocity = {
            k[len(prefix):]: np.array(state[k]) for k in state if k.startswith(prefix)
        }


class Adam(FirstOrderOptimizer):
    """Adam (Kingma & Ba) -- the stock DeePMD optimizer (paper baseline)."""

    name = "Adam"

    def __init__(
        self,
        model: DeePMD,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        **kw,
    ):
        super().__init__(model, **kw)
        self.beta1, self.beta2, self.eps = float(beta1), float(beta2), float(eps)
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t = 0

    def step_batch(self, batch: DescriptorBatch) -> dict[str, float]:
        self._t += 1
        return super().step_batch(batch)

    @property
    def hyperparams(self) -> dict:
        return {
            **super().hyperparams,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eps": self.eps,
        }

    def state_dict(self) -> dict[str, np.ndarray]:
        out = super().state_dict()
        out["adam/t"] = np.array(self._t)
        for name, m in self._m.items():
            out[f"adam/m/{name}"] = m.copy()
        for name, v in self._v.items():
            out[f"adam/v/{name}"] = v.copy()
        return out

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        super().load_state_dict(state)
        self._t = int(state.get("adam/t", 0))
        self._m = {
            k[len("adam/m/"):]: np.array(state[k])
            for k in state
            if k.startswith("adam/m/")
        }
        self._v = {
            k[len("adam/v/"):]: np.array(state[k])
            for k in state
            if k.startswith("adam/v/")
        }

    def _apply(self, name: str, g: np.ndarray, lr: float) -> None:
        m = self._m.get(name)
        v = self._v.get(name)
        m = self.beta1 * m + (1 - self.beta1) * g if m is not None else (1 - self.beta1) * g
        v = self.beta2 * v + (1 - self.beta2) * g * g if v is not None else (1 - self.beta2) * g * g
        self._m[name], self._v[name] = m, v
        mhat = m / (1 - self.beta1**self._t)
        vhat = v / (1 - self.beta2**self._t)
        self.model.params[name] = self.model.params[name] - lr * mhat / (
            np.sqrt(vhat) + self.eps
        )
