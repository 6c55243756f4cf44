"""Kernel-launch instrumentation.

On a GPU every primitive tensor operation becomes (at least) one CUDA kernel
launch; the paper's Figure 7(b) counts those launches under successive
optimizations.  Our numpy engine plays the same game at op granularity:
every primitive op executed by :mod:`repro.autograd.ops` reports itself to
the active :class:`KernelCounter` (if any), which records

* the number of "launches" per op name,
* the bytes allocated for op outputs (a proxy for device-memory traffic).

Fused kernels (``linear_tanh``, the fused P-update in the optimizer, the
hand-written symmetry-descriptor derivative) count as a *single* launch, so
the baseline/opt1/opt2/opt3 presets show the same qualitative reduction the
paper reports (397 -> 174 kernels for an energy update, 846 -> 281 for a
force update).

Sink stacks are **thread-local** (mirroring the tracer stacks of
:mod:`repro.telemetry.trace`): a counter opened on the main thread does not
see ops executed by rank-worker threads, and a worker's counter never
contaminates the parent's tally.  Workers that want their ops counted open
their own sink locally and ship the result back for an explicit merge.

Richer sinks (the op-level profiler of :mod:`repro.telemetry.profile`) can
additionally receive the output shape and operand shapes of each primitive
op -- the inputs of a FLOP estimate.  Shape forwarding is gated on
:data:`_WANT_SHAPES` so the common no-profiler path never builds the shape
tuples.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

#: number of installed sinks (across all threads) that want operand shapes;
#: checked by ``make_op`` before building shape tuples
_WANT_SHAPES = 0
#: number of installed sinks (across all threads) that want the *output
#: tensor* of every op (graph-lint tape recorders, NaN/Inf sanitizers);
#: checked by ``make_op`` after constructing the result tensor
_WANT_TENSORS = 0
_WANT_SHAPES_LOCK = threading.Lock()


# ---------------------------------------------------------------------------
# the op table: every kernel name the engine may launch, with the static
# properties the analysis subsystem checks against (repro.analysis)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class OpInfo:
    """Static properties of one registered kernel name.

    ``kind`` classifies the launch site: ``primitive`` (autograd ops),
    ``fused`` (composite forward kernels), ``backward`` (raw fused
    backward kernels that only run with grad mode off), ``optim`` (the
    Kalman-core BLAS kernels, outside the autograd graph).

    ``second_order`` declares that differentiating *through* the op's
    backward closure is exact (the closure is composed of primitives, or
    the op is linear with an exact adjoint).  The graph linter flags ops
    used under ``create_graph=True`` whose entry says otherwise.

    ``may_view`` declares that the op's output may legitimately alias an
    input buffer (numpy view semantics: reshape/transpose/basic slicing).
    Output/input aliasing on any *other* op is reported as an in-place
    hazard.
    """

    name: str
    kind: str = "primitive"
    second_order: bool = True
    may_view: bool = False


_OP_TABLE: dict[str, OpInfo] = {}


def register_op(
    name: str,
    kind: str = "primitive",
    second_order: bool = True,
    may_view: bool = False,
) -> OpInfo:
    """Register a kernel name in the instrument table (idempotent;
    re-registering overwrites).  Modules that create ops with
    :func:`repro.autograd.tensor.make_op` or report launches with
    :func:`record_launch` register their names at import time; the AST
    project lint rejects op-name literals absent from this table."""
    info = OpInfo(name=name, kind=kind, second_order=second_order, may_view=may_view)
    _OP_TABLE[name] = info
    return info


def op_info(name: str) -> Optional[OpInfo]:
    """The :class:`OpInfo` registered under ``name``, or ``None``."""
    return _OP_TABLE.get(name)


def registered_ops() -> dict[str, OpInfo]:
    """Snapshot of the op table (name -> :class:`OpInfo`)."""
    return dict(_OP_TABLE)


class _SinkStack(threading.local):
    """Per-thread stack of active launch sinks.

    Thread-locality is load-bearing: under the thread executor every rank
    runs ops concurrently, and a process-wide list would interleave every
    rank's launches into whichever counter the parent happened to open
    (corrupting the Figure 7(b) accounting).  Each thread counts only what
    it executes; cross-thread aggregation is an explicit merge.
    """

    def __init__(self):
        self.sinks: list = []


_TLS = _SinkStack()


def push_sink(sink, wants_shapes: bool = False, wants_tensors: bool = False) -> None:
    """Install ``sink`` (anything with a ``record`` method) on the calling
    thread's stack.  ``wants_shapes=True`` additionally turns on operand
    shape forwarding for the duration; ``wants_tensors=True`` turns on
    output-tensor forwarding to the sink's ``record_tensor`` method (the
    graph-lint tape recorder and the NaN/Inf sanitizer hooks)."""
    global _WANT_SHAPES, _WANT_TENSORS
    _TLS.sinks.append(sink)
    if wants_shapes or wants_tensors:
        with _WANT_SHAPES_LOCK:
            if wants_shapes:
                _WANT_SHAPES += 1
            if wants_tensors:
                _WANT_TENSORS += 1


def remove_sink(sink, wants_shapes: bool = False, wants_tensors: bool = False) -> None:
    """Remove the innermost occurrence of ``sink`` from the calling
    thread's stack (no-op if absent)."""
    global _WANT_SHAPES, _WANT_TENSORS
    sinks = _TLS.sinks
    for i in range(len(sinks) - 1, -1, -1):
        if sinks[i] is sink:
            del sinks[i]
            if wants_shapes or wants_tensors:
                with _WANT_SHAPES_LOCK:
                    if wants_shapes:
                        _WANT_SHAPES = max(_WANT_SHAPES - 1, 0)
                    if wants_tensors:
                        _WANT_TENSORS = max(_WANT_TENSORS - 1, 0)
            break


def shapes_wanted() -> bool:
    """Whether any installed sink (on any thread) wants operand shapes."""
    return _WANT_SHAPES > 0


def tensors_wanted() -> bool:
    """Whether any installed sink (on any thread) wants output tensors."""
    return _WANT_TENSORS > 0


def thread_observed() -> bool:
    """Whether a launch sink is installed on the calling thread: work
    that would otherwise move to another thread stays on this one, so
    the sink sees every launch in order."""
    return bool(_TLS.sinks)


@dataclass(eq=False)
class KernelCounter:
    """Counts primitive op executions ("kernel launches") and output bytes.

    Identity (not value) equality: counters are mutable accumulators and
    may nest -- two counters opened back-to-back hold identical tallies,
    and the sink-stack bookkeeping must never confuse them.

    Use as a context manager::

        with KernelCounter() as kc:
            loss = model(batch)
            loss.backward()
        print(kc.total_launches, kc.total_bytes)
    """

    launches: Counter = field(default_factory=Counter)
    bytes_allocated: int = 0

    def record(self, op_name: str, nbytes: int = 0, out_shape=None, in_shapes=None) -> None:
        self.launches[op_name] += 1
        self.bytes_allocated += int(nbytes)

    @property
    def total_launches(self) -> int:
        return sum(self.launches.values())

    @property
    def total_bytes(self) -> int:
        return self.bytes_allocated

    def reset(self) -> None:
        self.launches.clear()
        self.bytes_allocated = 0

    def __enter__(self) -> "KernelCounter":
        push_sink(self)
        return self

    def __exit__(self, *exc) -> None:
        remove_sink(self)

    def breakdown(self, top: int = 10) -> list[tuple[str, int]]:
        """The ``top`` most-launched op names, descending."""
        return self.launches.most_common(top)


def record_launch(op_name: str, nbytes: int = 0, out_shape=None, in_shapes=None) -> None:
    """Report one kernel launch to every sink active on this thread.

    ``out_shape`` / ``in_shapes`` are only supplied by the op dispatch when
    a shape-hungry sink (the profiler) is installed; plain counters ignore
    them.
    """
    for sink in _TLS.sinks:
        sink.record(op_name, nbytes, out_shape, in_shapes)


def record_tensor(tensor) -> None:
    """Forward an op's freshly built output tensor to every sink on this
    thread that exposes a ``record_tensor`` method.

    Called by ``make_op`` only while a tensor-hungry sink is installed
    (the :data:`_WANT_TENSORS` gate), so the common path pays one global
    check.  Sinks may raise -- the NaN/Inf sanitizer aborts the op that
    produced a non-finite buffer by doing exactly that."""
    for sink in _TLS.sinks:
        cb = getattr(sink, "record_tensor", None)
        if cb is not None:
            cb(tensor)
