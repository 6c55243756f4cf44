"""Autograd-graph linter: static checks over a recorded op tape.

The engine's invariants (see ``repro.autograd.tensor``) are cheap to state
and easy to break silently from model code: every graph buffer stays
float64, backward closures return gradients shaped like their parents,
op outputs never alias operand buffers (except declared view ops), and
recorded buffers are not mutated behind autograd's back.  The linter
checks those invariants over a whole recorded tape at once::

    with TapeRecorder() as tape:
        loss = model(batch)
    report = GraphLinter(tape).lint(roots=[loss])
    sys.exit(report.exit_code)

The tape and sanitizer sinks live in :mod:`repro.autograd.capture`,
beside the op stream they observe; this module re-exports them.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from ..autograd.capture import (  # noqa: F401  (re-exported surface)
    Sanitizer,
    SanitizerError,
    TapeEntry,
    TapeRecorder,
)
from ..autograd.config import no_grad
from ..autograd.gradcheck import check_second_order
from ..autograd.instrument import op_info
from ..autograd.tensor import GRAD_DTYPE, Tensor
from .findings import Finding, Report

__all__ = [
    "TapeEntry",
    "TapeRecorder",
    "GraphLinter",
    "Sanitizer",
    "SanitizerError",
    "verify_second_order",
]


def _ancestors(roots: Iterable[Tensor]) -> set[int]:
    """ids of every tensor reachable from ``roots`` via parent edges."""
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return seen


def _bit_equal(a: Optional[Tensor], b: Optional[Tensor]) -> bool:
    if a is None or b is None:
        return a is b
    return a.data.shape == b.data.shape and a.data.tobytes() == b.data.tobytes()


class GraphLinter:
    """Checks a recorded tape against the engine's graph invariants."""

    def __init__(self, tape: TapeRecorder):
        self.tape = tape

    def lint(
        self,
        roots: Sequence[Tensor] = (),
        require_second_order: bool = False,
    ) -> Report:
        """Run every check; pass the graph outputs as ``roots`` to enable
        reachability analysis.  ``require_second_order=True`` additionally
        rejects any tape op whose registry entry says its backward is not
        differentiable (the ``create_graph=True`` safety check)."""
        report = Report(tool="graphlint")
        report.metrics["tape_length"] = len(self.tape.entries)
        report.metrics["launches"] = len(self.tape.launch_names)
        self._check_registered(report)
        self._check_dtypes(report)
        self._check_aliasing(report)
        self._check_mutation(report)
        self._check_backward_shapes(report)
        if roots:
            self._check_reachability(report, roots)
        if require_second_order:
            self._check_second_order_safety(report)
        return report

    # ------------------------------------------------------------------
    def _check_registered(self, report: Report) -> None:
        report.checks_run.append("unregistered-op")
        seen: set[str] = set()
        for name in self.tape.launch_names:
            if name in seen:
                continue
            seen.add(name)
            if op_info(name) is None:
                report.add(Finding(
                    rule="unregistered-op",
                    message=f"kernel {name!r} is not in the instrument op table; "
                            f"add a register_op() call next to its definition",
                    context={"op": name},
                ))

    def _check_dtypes(self, report: Report) -> None:
        report.checks_run.append("dtype-invariant")
        for e in self.tape.entries:
            if e.tensor.data.dtype != GRAD_DTYPE:
                report.add(Finding(
                    rule="dtype-invariant",
                    message=f"op {e.op!r} produced dtype {e.tensor.data.dtype} "
                            f"(engine invariant: every graph buffer is "
                            f"{np.dtype(GRAD_DTYPE).name})",
                    context={"op": e.op, "seq": e.seq,
                             "dtype": str(e.tensor.data.dtype)},
                ))

    def _check_aliasing(self, report: Report) -> None:
        report.checks_run.append("alias-hazard")
        for e in self.tape.entries:
            info = op_info(e.op)
            if info is not None and info.may_view:
                continue  # reshape/transpose/gather: views are the contract
            for j, parent in enumerate(e.tensor._parents):
                if np.may_share_memory(e.tensor.data, parent.data):
                    report.add(Finding(
                        rule="alias-hazard",
                        message=f"output of op {e.op!r} shares memory with its "
                                f"parent #{j} ({parent._op!r}); an in-place update "
                                f"would corrupt the saved activation -- copy the "
                                f"buffer or register the op with may_view=True",
                        context={"op": e.op, "seq": e.seq, "parent": parent._op},
                    ))

    def _check_mutation(self, report: Report) -> None:
        report.checks_run.append("buffer-mutation")
        for e in self.tape.entries:
            if e.mutated():
                report.add(Finding(
                    rule="buffer-mutation",
                    message=f"buffer produced by op {e.op!r} was mutated after "
                            f"recording (write-after-read on a shared graph "
                            f"buffer); backward would silently use the new values",
                    context={"op": e.op, "seq": e.seq},
                ))

    def _probe_backward(self, report: Report, e: TapeEntry, seed: Tensor, needs):
        """One closure call under the engine's convention; ``None`` (plus a
        finding) if it raises or returns the wrong number of gradients."""
        node = e.tensor
        try:
            # numerical validity (log(0), 1/0, ...) is the
            # Sanitizer's concern; this probe only checks structure
            with no_grad(), np.errstate(all="ignore"):
                parent_grads = tuple(node._backward_fn(seed, needs))
        except Exception as exc:
            report.add(Finding(
                rule="backward-shape",
                message=f"backward of op {e.op!r} raised "
                        f"{type(exc).__name__}: {exc}",
                context={"op": e.op, "seq": e.seq},
            ))
            return None
        if len(parent_grads) != len(node._parents):
            report.add(Finding(
                rule="backward-shape",
                message=f"backward of op {e.op!r} returned "
                        f"{len(parent_grads)} gradients for "
                        f"{len(node._parents)} parents",
                context={"op": e.op, "seq": e.seq},
            ))
            return None
        return parent_grads

    def _check_backward_shapes(self, report: Report) -> None:
        """Invoke each node's backward closure with a ones seed and check
        every returned gradient is shaped like (and typed like) its parent,
        and that the closure honours ``needs``: asked for one parent only,
        it returns that gradient bit-equal to the all-needed one and
        ``None`` for every other parent."""
        report.checks_run.append("backward-shape")
        for e in self.tape.entries:
            node = e.tensor
            if node._backward_fn is None:
                continue
            n = len(node._parents)
            seed = Tensor(np.ones_like(node.data))
            full = self._probe_backward(report, e, seed, (True,) * n)
            if full is None:
                continue
            for j, (parent, g) in enumerate(zip(node._parents, full)):
                if g is None:
                    continue
                if g.data.shape != parent.data.shape:
                    report.add(Finding(
                        rule="backward-shape",
                        message=f"backward of op {e.op!r} returned shape "
                                f"{g.data.shape} for parent #{j} "
                                f"({parent._op!r}, shape {parent.data.shape})",
                        context={"op": e.op, "seq": e.seq, "parent": parent._op},
                    ))
                elif g.data.dtype != GRAD_DTYPE:
                    report.add(Finding(
                        rule="backward-shape",
                        message=f"backward of op {e.op!r} returned dtype "
                                f"{g.data.dtype} for parent #{j} (gradients "
                                f"must be {np.dtype(GRAD_DTYPE).name})",
                        context={"op": e.op, "seq": e.seq, "parent": parent._op},
                    ))
            if n == 1:
                continue  # all-needed *is* the one-hot probe
            for j in range(n):
                only = self._probe_backward(
                    report, e, seed, tuple(k == j for k in range(n))
                )
                if only is None:
                    break
                extra = [k for k, g in enumerate(only) if k != j and g is not None]
                if extra:
                    report.add(Finding(
                        rule="backward-shape",
                        message=f"backward of op {e.op!r} ignores needs: asked "
                                f"for parent #{j} only, it also computed "
                                f"gradients for parents {extra}",
                        context={"op": e.op, "seq": e.seq, "needed": j},
                    ))
                if not _bit_equal(only[j], full[j]):
                    report.add(Finding(
                        rule="backward-shape",
                        message=f"backward of op {e.op!r}: the gradient for "
                                f"parent #{j} changes when the other parents "
                                f"are not needed (a kept gradient must not "
                                f"depend on a dropped one)",
                        context={"op": e.op, "seq": e.seq, "needed": j},
                    ))

    def _check_reachability(self, report: Report, roots: Sequence[Tensor]) -> None:
        """Tape entries not reachable from any root are dead compute --
        ops whose result never feeds the output (a refactoring leftover,
        or a detach() where none was meant)."""
        report.checks_run.append("unreachable-node")
        live = _ancestors(roots)
        root_ids = {id(r) for r in roots}
        for e in self.tape.entries:
            if id(e.tensor) not in live and id(e.tensor) not in root_ids:
                report.add(Finding(
                    rule="unreachable-node",
                    message=f"op {e.op!r} (tape #{e.seq}) is unreachable from "
                            f"the graph roots: its result never contributes to "
                            f"the output (dead compute or an unintended detach)",
                    context={"op": e.op, "seq": e.seq},
                ))

    def _check_second_order_safety(self, report: Report) -> None:
        report.checks_run.append("second-order-unsafe")
        flagged: set[str] = set()
        for e in self.tape.entries:
            info = op_info(e.op)
            if info is not None and not info.second_order and e.op not in flagged:
                flagged.add(e.op)
                report.add(Finding(
                    rule="second-order-unsafe",
                    message=f"op {e.op!r} is registered second_order=False but "
                            f"appears in a graph built for create_graph=True; "
                            f"differentiating through its backward is not exact",
                    context={"op": e.op},
                ))


# ---------------------------------------------------------------------------
# dynamic double-backward verification (satellite of the graph linter)
# ---------------------------------------------------------------------------
def verify_second_order(
    fn: Callable[..., Tensor],
    inputs: Sequence[np.ndarray],
    label: str = "fn",
    report: Optional[Report] = None,
    **kwargs,
) -> Report:
    """Run :func:`repro.autograd.gradcheck.check_second_order` on ``fn``
    and convert a failure into a ``second-order-mismatch`` finding.

    This is the linter's *dynamic* companion to the static
    ``second-order-unsafe`` registry check: the static check trusts the
    registry; this one differentiates through the actual backward pass
    (exactly how the force label enters training) and compares against
    central differences.
    """
    if report is None:
        report = Report(tool="graphlint")
    report.checks_run.append(f"second-order-verify:{label}")
    try:
        check_second_order(fn, inputs, **kwargs)
    except AssertionError as exc:
        report.add(Finding(
            rule="second-order-mismatch",
            message=f"double backward of {label} disagrees with central "
                    f"differences: {exc}",
            context={"label": label},
        ))
    return report
