"""Fused composite kernels (the repo's ``torch.compile`` analog, paper Opt2).

A DeePMD layer is ``x + tanh(x @ W + b)``: four primitive kernels when
executed eagerly.  The fused variants below execute the whole layer as *one*
kernel launch, and -- in the common first-order path -- compute the parent
gradients the sweep asked for (``needs``) in one fused backward launch as
well: inference, which only wants ``gx``, never forms ``gW``/``gb``.

Correctness under double backward is preserved by a dual-path backward:

* grad mode **off** during backward (the usual ``create_graph=False`` case)
  -> a single fused raw-numpy backward kernel;
* grad mode **on** (``create_graph=True``, needed when the result will be
  differentiated again, e.g. building the force graph) -> the backward is
  composed from primitive ops so higher-order derivatives stay exact.

Layers pick fused vs eager based on ``config.fused_elementwise`` via the
``linear* `` dispatchers at the bottom, so flipping one flag reproduces the
paper's Opt2 kernel-count drop without touching model code.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .config import config
from .instrument import record_launch, register_op
from .tensor import Tensor, as_tensor, make_op
from . import ops

# fused forward kernels keep exact higher-order derivatives via the
# dual-path backward (composed from primitives when grad mode is on); the
# raw ``*_bwd_fused`` kernels only ever run with grad mode off, so they
# are registered as first-order-only backward launches
for _name in ("linear_fused", "linear_tanh_fused", "residual_linear_tanh_fused"):
    register_op(_name, kind="fused")
for _name in (
    "linear_bwd_fused", "linear_tanh_bwd_fused", "residual_linear_tanh_bwd_fused",
):
    register_op(_name, kind="backward", second_order=False)
del _name


def _batch_flatten(t: Tensor, last: int) -> Tensor:
    return ops.reshape(t, (-1, last))


def _linear_grads_composed(g: Tensor, x: Tensor, W: Tensor, b: Tensor, needs):
    """The needed of (gx, gW, gb) for out = x @ W + b, built from primitives."""
    gx = gW = gb = None
    n_in, n_out = W.shape
    if needs[0]:
        gx = ops.matmul(g, ops.swapaxes(W, -1, -2))
    if needs[1]:
        gW = ops.matmul(
            ops.swapaxes(_batch_flatten(x, n_in), -1, -2), _batch_flatten(g, n_out)
        )
    if needs[2]:
        gb = ops.tsum(_batch_flatten(g, n_out), axis=0)
    return gx, gW, gb


def _linear_grads_raw(op: str, gpre: np.ndarray, x: Tensor, W: Tensor, needs,
                      residual: Optional[np.ndarray] = None):
    """The needed of (gx, gW, gb) as one raw first-order launch ``op``
    reporting the bytes it produced; ``residual`` is the skip
    connection's share of gx."""
    gx = gW = gb = None
    g2 = gpre.reshape(-1, W.shape[1])
    if needs[0]:
        gx = gpre @ W.data.T
        if residual is not None:
            gx = gx + residual
    if needs[1]:
        gW = x.data.reshape(-1, W.shape[0]).T @ g2
    if needs[2]:
        gb = g2.sum(axis=0)
    grads = (gx, gW, gb)
    record_launch(op, sum(a.nbytes for a in grads if a is not None))
    return tuple(None if a is None else Tensor(a) for a in grads)


# ---------------------------------------------------------------------------
# eager (unfused) layer implementations
# ---------------------------------------------------------------------------
def linear_eager(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    return ops.add(ops.matmul(x, W), b)


def linear_tanh_eager(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    return ops.tanh(linear_eager(x, W, b))


def residual_linear_tanh_eager(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    return ops.add(x, linear_tanh_eager(x, W, b))


# ---------------------------------------------------------------------------
# fused layer implementations
# ---------------------------------------------------------------------------
def linear_fused(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    x, W, b = as_tensor(x), as_tensor(W), as_tensor(b)
    out_arr = x.data @ W.data + b.data

    def backward(g: Tensor, needs):
        if config.grad_enabled:
            return _linear_grads_composed(g, x, W, b, needs)
        return _linear_grads_raw("linear_bwd_fused", g.data, x, W, needs)

    return make_op(out_arr, (x, W, b), backward, "linear_fused")


def linear_tanh_fused(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    x, W, b = as_tensor(x), as_tensor(W), as_tensor(b)
    t_arr = np.tanh(x.data @ W.data + b.data)

    def backward(g: Tensor, needs):
        if config.grad_enabled:
            t = ops.tanh(linear_fused(x, W, b))
            gpre = ops.mul(g, ops.sub(1.0, ops.mul(t, t)))
            return _linear_grads_composed(gpre, x, W, b, needs)
        gpre = g.data * (1.0 - t_arr * t_arr)
        return _linear_grads_raw("linear_tanh_bwd_fused", gpre, x, W, needs)

    return make_op(t_arr, (x, W, b), backward, "linear_tanh_fused")


def residual_linear_tanh_fused(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    x, W, b = as_tensor(x), as_tensor(W), as_tensor(b)
    t_arr = np.tanh(x.data @ W.data + b.data)
    out_arr = x.data + t_arr

    def backward(g: Tensor, needs):
        if config.grad_enabled:
            t = ops.tanh(linear_fused(x, W, b))
            gpre = ops.mul(g, ops.sub(1.0, ops.mul(t, t)))
            gx, gW, gb = _linear_grads_composed(gpre, x, W, b, needs)
            return (ops.add(gx, g) if needs[0] else None), gW, gb
        gpre = g.data * (1.0 - t_arr * t_arr)
        return _linear_grads_raw(
            "residual_linear_tanh_bwd_fused", gpre, x, W, needs, residual=g.data
        )

    return make_op(out_arr, (x, W, b), backward, "residual_linear_tanh_fused")


# ---------------------------------------------------------------------------
# dispatchers -- model code calls these
# ---------------------------------------------------------------------------
def linear(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """out = x @ W + b, fused or eager per ``config.fused_elementwise``."""
    if config.fused_elementwise:
        return linear_fused(x, W, b)
    return linear_eager(x, W, b)


def linear_tanh(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """out = tanh(x @ W + b)."""
    if config.fused_elementwise:
        return linear_tanh_fused(x, W, b)
    return linear_tanh_eager(x, W, b)


def residual_linear_tanh(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """out = x + tanh(x @ W + b) (DeePMD residual layer)."""
    if config.fused_elementwise:
        return residual_linear_tanh_fused(x, W, b)
    return residual_linear_tanh_eager(x, W, b)
