"""Primitive differentiable operations.

Every function here is one "kernel": it computes its result with numpy,
records exactly one launch with the instrumentation layer, and registers a
backward closure written *in terms of these same primitives* so that
gradients are themselves differentiable (double backward).

A closure is called as ``backward(g, needs)``: ``needs[j]`` says whether
the sweep wants a gradient for parent ``j`` (it requires grad and leads to
a requested input).  Slots that are not needed return ``None`` instead of
being computed; a needed slot must not depend on whether the others are.

Broadcasting follows numpy semantics; gradients are reduced back to the
operand shapes with :func:`unbroadcast`, which is itself built from ``sum``
and ``reshape`` ops and therefore also double-backward safe.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from .instrument import register_op
from .tensor import Tensor, as_tensor, make_op

Scalar = Union[int, float]

# every primitive kernel this module may launch, with its static analysis
# properties (second_order: the backward closure is composed of these same
# primitives, so double backward is exact; may_view: numpy may hand back a
# view of the input buffer).  repro.analysis lints tapes and call sites
# against this table.
for _name in (
    "add", "sub", "mul", "div", "neg", "pow", "exp", "log", "tanh",
    "sqrt", "abs", "maximum", "minimum", "where", "sum", "broadcast",
    "concat", "scatter_add", "matmul", "cmp_mask", "sign",
):
    register_op(_name)
for _name in ("reshape", "transpose", "gather"):
    register_op(_name, may_view=True)
del _name
TensorLike = Union[Tensor, Scalar, np.ndarray]


# ---------------------------------------------------------------------------
# broadcasting support
# ---------------------------------------------------------------------------
def unbroadcast(g: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Reduce gradient ``g`` back to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = tsum(g, axis=tuple(range(extra)))
    keep_axes = tuple(
        i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1
    )
    if keep_axes:
        g = tsum(g, axis=keep_axes, keepdims=True)
    if g.shape != shape:
        g = reshape(g, shape)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------
def add(a: TensorLike, b: TensorLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def backward(g: Tensor, needs):
        ga = unbroadcast(g, a.shape) if needs[0] else None
        gb = unbroadcast(g, b.shape) if needs[1] else None
        return ga, gb

    return make_op(out, (a, b), backward, "add")


def sub(a: TensorLike, b: TensorLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def backward(g: Tensor, needs):
        ga = unbroadcast(g, a.shape) if needs[0] else None
        gb = unbroadcast(neg(g), b.shape) if needs[1] else None
        return ga, gb

    return make_op(out, (a, b), backward, "sub")


def mul(a: TensorLike, b: TensorLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def backward(g: Tensor, needs):
        ga = unbroadcast(mul(g, b), a.shape) if needs[0] else None
        gb = unbroadcast(mul(g, a), b.shape) if needs[1] else None
        return ga, gb

    return make_op(out, (a, b), backward, "mul")


def div(a: TensorLike, b: TensorLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data

    def backward(g: Tensor, needs):
        ga = gb = None
        if needs[0]:
            ga = unbroadcast(div(g, b), a.shape)
        if needs[1]:
            gb = unbroadcast(neg(div(mul(g, a), mul(b, b))), b.shape)
        return ga, gb

    return make_op(out, (a, b), backward, "div")


def neg(a: TensorLike) -> Tensor:
    a = as_tensor(a)
    out = -a.data

    def backward(g: Tensor, needs):
        return (neg(g),)

    return make_op(out, (a,), backward, "neg")


def power(a: TensorLike, p: Scalar) -> Tensor:
    """``a ** p`` for a python-scalar exponent."""
    a = as_tensor(a)
    p = float(p)
    out = a.data**p

    def backward(g: Tensor, needs):
        return (mul(g, mul(power(a, p - 1.0), p)),)

    return make_op(out, (a,), backward, "pow")


def exp(a: TensorLike) -> Tensor:
    a = as_tensor(a)
    out_arr = np.exp(a.data)

    def backward(g: Tensor, needs):
        return (mul(g, out),)

    out = make_op(out_arr, (a,), backward, "exp")
    return out


def log(a: TensorLike) -> Tensor:
    a = as_tensor(a)
    out = np.log(a.data)

    def backward(g: Tensor, needs):
        return (div(g, a),)

    return make_op(out, (a,), backward, "log")


def tanh(a: TensorLike) -> Tensor:
    a = as_tensor(a)
    out_arr = np.tanh(a.data)

    def backward(g: Tensor, needs):
        return (mul(g, sub(1.0, mul(out, out))),)

    out = make_op(out_arr, (a,), backward, "tanh")
    return out


def sqrt(a: TensorLike) -> Tensor:
    a = as_tensor(a)
    out_arr = np.sqrt(a.data)

    def backward(g: Tensor, needs):
        return (div(mul(g, 0.5), out),)

    out = make_op(out_arr, (a,), backward, "sqrt")
    return out


def sign_of(a: TensorLike) -> Tensor:
    """sign(a) as a *recorded* zero-gradient op.

    :func:`absolute` builds it inside its backward, so a forward that is
    never differentiated holds no sign buffer, and it is a counted kernel
    launch like any other (the pinned Fig. 7(b) counts include it).
    """
    a = as_tensor(a)
    out = np.sign(a.data)

    def backward(g: Tensor, needs):
        return (None,)

    return make_op(out, (a,), backward, "sign")


def _cmp_mask(a: Tensor, b: Tensor, mode: str) -> Tensor:
    """Float {0,1} comparison mask as a recorded zero-gradient op
    (``mode`` is ``"ge"`` or ``"le"``); built by the backward of
    :func:`maximum` / :func:`minimum` for the same reasons as
    :func:`sign_of`."""
    arr = a.data >= b.data if mode == "ge" else a.data <= b.data
    out = arr.astype(np.float64)

    def backward(g: Tensor, needs):
        return None, None

    return make_op(out, (a, b), backward, "cmp_mask")


def absolute(a: TensorLike) -> Tensor:
    """|a|; the subgradient at 0 is taken as 0."""
    a = as_tensor(a)
    out = np.abs(a.data)

    def backward(g: Tensor, needs):
        return (mul(g, sign_of(a)),)

    return make_op(out, (a,), backward, "abs")


def maximum(a: TensorLike, b: TensorLike) -> Tensor:
    """Elementwise max; ties send the full gradient to ``a``."""
    a, b = as_tensor(a), as_tensor(b)
    out = np.where(a.data >= b.data, a.data, b.data)

    def backward(g: Tensor, needs):
        m = _cmp_mask(a, b, "ge")
        gm = mul(g, m)
        # g - g*m == g*(1-m) bit-for-bit on a {0,1} mask, without baking
        # a second mask constant into the closure
        ga = unbroadcast(gm, a.shape) if needs[0] else None
        gb = unbroadcast(sub(g, gm), b.shape) if needs[1] else None
        return ga, gb

    return make_op(out, (a, b), backward, "maximum")


def minimum(a: TensorLike, b: TensorLike) -> Tensor:
    """Elementwise min; ties send the full gradient to ``a``."""
    a, b = as_tensor(a), as_tensor(b)
    out = np.where(a.data <= b.data, a.data, b.data)

    def backward(g: Tensor, needs):
        m = _cmp_mask(a, b, "le")
        gm = mul(g, m)
        ga = unbroadcast(gm, a.shape) if needs[0] else None
        gb = unbroadcast(sub(g, gm), b.shape) if needs[1] else None
        return ga, gb

    return make_op(out, (a, b), backward, "minimum")


def where(cond: np.ndarray, a: TensorLike, b: TensorLike) -> Tensor:
    """Select ``a`` where the constant boolean mask holds, else ``b``.

    The float mask rides as a third (zero-gradient) parent, so graph lint
    sees every buffer the backward reads; the backward computes the ``b``
    branch as ``g - g*mask`` (bit-equal to ``g*(1-mask)`` on a {0,1}
    mask) to avoid holding a derived ``1-mask`` buffer as well.
    """
    a, b = as_tensor(a), as_tensor(b)
    cond = np.asarray(cond, dtype=bool)
    out = np.where(cond, a.data, b.data)
    fmask_t = Tensor(cond.astype(np.float64))

    def backward(g: Tensor, needs):
        gm = mul(g, fmask_t)
        ga = unbroadcast(gm, a.shape) if needs[0] else None
        gb = unbroadcast(sub(g, gm), b.shape) if needs[1] else None
        return ga, gb, None

    return make_op(out, (a, b, fmask_t), backward, "where")


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------
def tsum(
    a: TensorLike,
    axis: Optional[Union[int, tuple[int, ...]]] = None,
    keepdims: bool = False,
) -> Tensor:
    a = as_tensor(a)
    out = np.sum(a.data, axis=axis, keepdims=keepdims)
    in_shape = a.shape
    if axis is None:
        axes = tuple(range(len(in_shape)))
    elif isinstance(axis, int):
        axes = (axis % max(len(in_shape), 1),)
    else:
        axes = tuple(ax % len(in_shape) for ax in axis)

    def backward(g: Tensor, needs):
        if not keepdims and in_shape:
            expand_shape = list(in_shape)
            for ax in axes:
                expand_shape[ax] = 1
            g = reshape(g, tuple(expand_shape))
        return (broadcast_to(g, in_shape),)

    return make_op(np.asarray(out), (a,), backward, "sum")


def tmean(
    a: TensorLike,
    axis: Optional[Union[int, tuple[int, ...]]] = None,
    keepdims: bool = False,
) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        count = a.size
    else:
        axes = (axis,) if isinstance(axis, int) else axis
        count = 1
        for ax in axes:
            count *= a.shape[ax]
    return div(tsum(a, axis=axis, keepdims=keepdims), float(count))


def broadcast_to(a: TensorLike, shape: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    out = np.broadcast_to(a.data, shape).copy()

    def backward(g: Tensor, needs):
        return (unbroadcast(g, a.shape),)

    return make_op(out, (a,), backward, "broadcast")


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------
def reshape(a: TensorLike, shape: Union[int, tuple[int, ...]]) -> Tensor:
    a = as_tensor(a)
    if isinstance(shape, int):
        shape = (shape,)
    out = a.data.reshape(shape)
    in_shape = a.shape

    def backward(g: Tensor, needs):
        return (reshape(g, in_shape),)

    return make_op(out, (a,), backward, "reshape")


def transpose(a: TensorLike, axes: Optional[Sequence[int]] = None) -> Tensor:
    a = as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    axes = tuple(axes)
    out = np.transpose(a.data, axes)
    inv = tuple(np.argsort(axes))

    def backward(g: Tensor, needs):
        return (transpose(g, inv),)

    return make_op(out, (a,), backward, "transpose")


def swapaxes(a: TensorLike, ax1: int, ax2: int) -> Tensor:
    a = as_tensor(a)
    axes = list(range(a.ndim))
    axes[ax1], axes[ax2] = axes[ax2], axes[ax1]
    return transpose(a, axes)


def concat(tensors: Sequence[TensorLike], axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def backward(g: Tensor, needs):
        grads = [None] * len(ts)
        for i, need in enumerate(needs):
            if need:
                idx = [slice(None)] * out.ndim
                idx[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
                grads[i] = index(g, tuple(idx))
        return tuple(grads)

    return make_op(out, tuple(ts), backward, "concat")


# ---------------------------------------------------------------------------
# indexing (gather / scatter-add) -- the backbone of neighbor-list gathers
# ---------------------------------------------------------------------------
def index(a: TensorLike, idx) -> Tensor:
    """``a[idx]`` for a *constant* index (slices, ints, integer arrays).

    Backward is a scatter-add into a zeros tensor of ``a``'s shape, which is
    itself differentiable (its backward is this gather again), so neighbor
    gathers survive double backward.
    """
    a = as_tensor(a)
    out = a.data[idx]
    if np.isscalar(out) or out.ndim == 0:
        out = np.asarray(out)
    in_shape = a.shape

    def backward(g: Tensor, needs):
        return (index_add(in_shape, idx, g),)

    return make_op(np.ascontiguousarray(out), (a,), backward, "gather")


def index_add(shape: tuple[int, ...], idx, values: TensorLike) -> Tensor:
    """zeros(shape) with ``values`` scatter-added at ``idx`` (constant)."""
    values = as_tensor(values)
    out = np.zeros(shape, dtype=values.dtype if values.dtype.kind == "f" else np.float64)
    np.add.at(out, idx, values.data)

    def backward(g: Tensor, needs):
        return (index(g, idx),)

    return make_op(out, (values,), backward, "scatter_add")


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------
def matmul(a: TensorLike, b: TensorLike) -> Tensor:
    """Batched matrix multiply with numpy broadcasting on batch dims."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul requires operands with ndim >= 2")
    out = a.data @ b.data

    def backward(g: Tensor, needs):
        ga = gb = None
        if needs[0]:
            ga = unbroadcast(matmul(g, swapaxes(b, -1, -2)), a.shape)
        if needs[1]:
            gb = unbroadcast(matmul(swapaxes(a, -1, -2), g), b.shape)
        return ga, gb

    return make_op(out, (a, b), backward, "matmul")


# ---------------------------------------------------------------------------
# convenience constructors
# ---------------------------------------------------------------------------
def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def zeros_like(t: Tensor) -> Tensor:
    return Tensor(np.zeros_like(t.data))


def ones_like(t: Tensor) -> Tensor:
    return Tensor(np.ones_like(t.data))


# ---------------------------------------------------------------------------
# attach operator sugar to Tensor
# ---------------------------------------------------------------------------
def _install_tensor_methods() -> None:
    Tensor.__add__ = lambda self, other: add(self, other)
    Tensor.__radd__ = lambda self, other: add(other, self)
    Tensor.__sub__ = lambda self, other: sub(self, other)
    Tensor.__rsub__ = lambda self, other: sub(other, self)
    Tensor.__mul__ = lambda self, other: mul(self, other)
    Tensor.__rmul__ = lambda self, other: mul(other, self)
    Tensor.__truediv__ = lambda self, other: div(self, other)
    Tensor.__rtruediv__ = lambda self, other: div(other, self)
    Tensor.__neg__ = lambda self: neg(self)
    Tensor.__pow__ = lambda self, p: power(self, p)
    Tensor.__matmul__ = lambda self, other: matmul(self, other)
    Tensor.__getitem__ = lambda self, idx: index(self, idx)
    Tensor.tanh = lambda self: tanh(self)
    Tensor.exp = lambda self: exp(self)
    Tensor.log = lambda self: log(self)
    Tensor.sqrt = lambda self: sqrt(self)
    Tensor.abs = lambda self: absolute(self)
    Tensor.sum = lambda self, axis=None, keepdims=False: tsum(self, axis, keepdims)
    Tensor.mean = lambda self, axis=None, keepdims=False: tmean(self, axis, keepdims)
    Tensor.reshape = lambda self, *shape: reshape(
        self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape
    )
    Tensor.transpose = lambda self, *axes: transpose(self, axes if axes else None)
    Tensor.swapaxes = lambda self, ax1, ax2: swapaxes(self, ax1, ax2)


_install_tensor_methods()
