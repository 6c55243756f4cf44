"""Reverse-mode automatic differentiation on numpy arrays.

This is the substrate that replaces PyTorch in the reproduction.  Two design
requirements come straight from the paper:

1. **Double backward.**  DeePMD fits atomic *forces*, i.e. the gradient of
   the network output w.r.t. its input coordinates.  Training on forces
   therefore needs gradients *of gradients* (d(dE/dr)/dw).  Every op's
   backward closure is written in terms of tensor ops, so running
   ``backward(create_graph=True)`` builds a differentiable graph of the
   backward pass and higher-order derivatives come out exactly.

2. **Kernel-launch accounting.**  Every primitive op reports itself to
   :mod:`repro.autograd.instrument`, which is how the Figure 7(b)
   kernel-count experiment is reproduced.

The engine is deliberately eager and minimal: a :class:`Tensor` wraps an
``ndarray`` plus (optionally) the closure that maps an output gradient to
parent gradients.  ``backward`` is an iterative reverse topological sweep.

**The closure rule.**  Every graph must be acyclic, so that reference
counting frees it the moment its last handle drops (a cycle waits for the
cyclic GC, and the graph's buffers with it).  A backward closure must
therefore not hold a strong reference to the tensor its op returns, nor
to another closure that does.  An op whose gradient reads its own output
(``tanh``, ``exp``, ``sqrt``) captures ``weakref.ref(out)``: the sweep
holds the node while its closure runs, so the reference is always live.
Mutually-adjoint ops (the Opt1 descriptor pair) call each other by
module-level name, never through captured closures.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .config import config, enable_grad, no_grad
from . import instrument as _instrument
from .instrument import record_launch

ArrayLike = Union[np.ndarray, float, int, list, tuple]

#: the one floating dtype of the engine.  Float inputs are normalized to it
#: on construction; the Kalman optimizers rely on every graph buffer staying
#: float64 (``repro.analysis`` lints the invariant on recorded tapes).
GRAD_DTYPE = np.float64
#: back-compat alias (pre-analysis name)
_GRAD_DTYPE = GRAD_DTYPE


class Tensor:
    """A numpy array plus an autograd graph edge.

    Parameters
    ----------
    data:
        Array (or scalar / nested list) holding the values.  Float data is
        kept in float64: the Kalman-filter optimizers are sensitive to the
        conditioning of the P update, and the paper's systems run in a
        regime where fp32 round-off visibly perturbs convergence traces.
    requires_grad:
        Whether gradients should be accumulated into ``.grad`` for this
        tensor when it participates in a ``backward`` call.
    """

    __slots__ = (
        "data", "requires_grad", "grad", "_parents", "_backward_fn", "_op",
        "__weakref__",  # the closure rule (module docstring)
    )

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        if isinstance(data, Tensor):  # pragma: no cover - defensive
            data = data.data
        arr = np.asarray(data)
        if arr.dtype.kind == "f" and arr.dtype != _GRAD_DTYPE:
            arr = arr.astype(_GRAD_DTYPE)
        elif arr.dtype.kind != "f" and requires_grad:
            # integer/unsigned/bool/complex data has no meaningful float64
            # gradient; silently keeping (or casting) the buffer used to
            # corrupt downstream Kalman algebra, so refuse loudly instead
            raise TypeError(
                f"only float tensors can require gradients (got dtype "
                f"{arr.dtype}); cast the data to float explicitly first"
            )
        self.data: np.ndarray = arr
        self.requires_grad: bool = bool(requires_grad)
        self.grad: Optional[Tensor] = None
        self._parents: tuple["Tensor", ...] = ()
        self._backward_fn: Optional[Callable] = None
        self._op: str = "leaf"

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a single-element tensor")
        return float(self.data.item())

    def numpy(self) -> np.ndarray:
        """The underlying array (no copy).  Mutating it bypasses autograd."""
        return self.data

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        grad_tag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_tag}, op={self._op})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # graph bookkeeping
    # ------------------------------------------------------------------
    def is_leaf(self) -> bool:
        return self._backward_fn is None

    def detach(self) -> "Tensor":
        """A view of the same data cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # backward engine
    # ------------------------------------------------------------------
    def backward(self, grad: Optional["Tensor"] = None, create_graph: bool = False) -> None:
        """Accumulate gradients of ``self`` into the ``.grad`` of every
        reachable leaf with ``requires_grad``.

        ``create_graph=True`` runs the backward closures with graph
        recording enabled so the produced gradients are themselves
        differentiable (needed for force training and for d(force)/dw in
        the EKF updates).
        """
        for node, g in _run_backward(self, grad, create_graph).items():
            if node.grad is None:
                node.grad = g
            else:
                node.grad = Tensor(node.grad.data + g.data)

    # operator sugar is attached in ops.py (to avoid an import cycle the
    # primitive implementations live there and register methods here).


def _topo_order(root: Tensor) -> list[Tensor]:
    """Iterative post-order DFS over the subgraph that requires grad."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    return order


def _run_backward(
    root: Tensor,
    seed: Optional[Tensor],
    create_graph: bool,
    inputs: Optional[Sequence[Tensor]] = None,
) -> dict[Tensor, Tensor]:
    """The one reverse sweep: d(root)/d(requested), demand-driven.

    ``inputs`` are the requested tensors (``None``: every ``requires_grad``
    leaf under ``root``, the ``Tensor.backward`` meaning).  A node is
    *live* iff it lies on a path from ``root`` to a requested tensor; only
    live nodes receive a cotangent, a closure runs only if one of its
    parents is live, and it is told which (``needs``) so it can skip the
    rest.  A node's cotangent is dropped as soon as its closure has run;
    the returned dict holds the requested tensors only.

    Every child of a live node is live, so a kept gradient sees the same
    contributions accumulated in the same order as an unpruned sweep:
    results are bit-identical, only unconsumed work disappears.
    """
    if not root.requires_grad:
        raise RuntimeError("backward() called on a tensor that does not require grad")
    if seed is None:
        if root.size != 1:
            raise RuntimeError("grad must be supplied for non-scalar outputs")
        seed = Tensor(np.ones_like(root.data))
    elif not isinstance(seed, Tensor):
        seed = Tensor(np.asarray(seed, dtype=_GRAD_DTYPE))

    order = _topo_order(root)  # parents before children, root last
    if inputs is None:
        inputs = [n for n in order if n._backward_fn is None]
    requested = {id(t): t for t in inputs}
    live = set()
    for node in order:
        # everything in ``order`` requires grad, so membership is enough
        if id(node) in requested or any(id(p) in live for p in node._parents):
            live.add(id(node))

    grads: dict[int, Tensor] = {id(root): seed} if id(root) in live else {}
    with enable_grad() if create_graph else no_grad():
        for node in reversed(order):
            nid = id(node)
            g = grads.get(nid) if nid in requested else grads.pop(nid, None)
            if g is None or node._backward_fn is None:
                continue
            needs = tuple(id(p) in live for p in node._parents)
            if not any(needs):
                continue
            for parent, need, pg in zip(
                node._parents, needs, node._backward_fn(g, needs)
            ):
                if pg is None or not need:
                    continue
                pid = id(parent)
                if pid in grads:
                    grads[pid] = grads[pid] + pg  # uses the add op
                else:
                    grads[pid] = pg
            pg = None  # the last parent gradient must not outlive its node
    return {requested[k]: v for k, v in grads.items()}


def grad(
    output: Tensor,
    inputs: Sequence[Tensor],
    grad_output: Optional[Tensor] = None,
    create_graph: bool = False,
    allow_unused: bool = True,
) -> tuple[Tensor, ...]:
    """Functional gradient: d(output)/d(inputs) without touching ``.grad``.

    Returns one tensor per input; only the part of the graph between
    ``output`` and ``inputs`` is swept.  Inputs that the output does not
    depend on get a zeros tensor when ``allow_unused`` (the default),
    otherwise a ``RuntimeError`` is raised.  An input that does not
    require grad is a ``ValueError``: autograd never tracked it, so its
    gradient is unknown rather than zero.
    """
    for i, inp in enumerate(inputs):
        if not inp.requires_grad:
            raise ValueError(
                f"grad(): input #{i} (op {inp._op!r}, shape {inp.shape}) does "
                f"not require grad; create it with requires_grad=True"
            )
    grads = _run_backward(output, grad_output, create_graph, inputs)
    out: list[Tensor] = []
    for inp in inputs:
        g = grads.get(inp)
        if g is None:
            if not allow_unused:
                raise RuntimeError("one of the inputs is unused in the graph")
            g = Tensor(np.zeros_like(inp.data))
        out.append(g)
    return tuple(out)


def make_op(
    data: np.ndarray,
    parents: Iterable[Tensor],
    backward_fn: Callable,
    op: str,
    launches: int = 1,
) -> Tensor:
    """Create the result tensor of a primitive op.

    Records ``launches`` kernel launches (fused kernels pass 1 even though
    they may issue several numpy calls internally) and wires the graph edge
    if grad mode is on and any parent requires grad.
    """
    parents = tuple(parents)
    nb = data.nbytes // max(launches, 1)
    if _instrument._WANT_SHAPES:
        # a profiler is live somewhere: forward the shapes it needs for
        # FLOP estimation (the common path skips the tuple build entirely)
        in_shapes = tuple(p.data.shape for p in parents)
        for _ in range(launches):
            record_launch(op, nb, data.shape, in_shapes)
    else:
        for _ in range(launches):
            record_launch(op, nb)
    rg = config.grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=rg)
    out._op = op  # kept even without a graph edge (sanitizer attribution)
    if rg:
        out._parents = parents
        out._backward_fn = backward_fn
    if _instrument._WANT_TENSORS:
        # a tape recorder or sanitizer is live somewhere: hand it the
        # result tensor (graph edge included) for tape/NaN analysis
        _instrument.record_tensor(out)
    return out


def as_tensor(x: Union[Tensor, ArrayLike]) -> Tensor:
    """Coerce scalars/arrays to constant tensors (pass tensors through)."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=_GRAD_DTYPE))
