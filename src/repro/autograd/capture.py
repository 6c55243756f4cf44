"""The op-stream observers that read each op's output tensor.

Every observer of the launch stream is its own context manager, and each
pushes exactly one sink on the calling thread's stack of
:mod:`repro.autograd.instrument`::

    with TapeRecorder() as tape:              # op tape (graph lint)
        loss = model(batch)

    with KernelCounter() as kc:               # kernel-launch counting
        ...

    with Sanitizer(mode="collect") as san:    # NaN/Inf guard
        ...

    with Tracer(profile=True) as tr:          # span-attributed op timeline
        ...
    tr.profiler.events

They *compose and nest* freely, so a sanitizer inside a tape inside a
counter all observe the same ops.  The two that need output tensors
(:class:`TapeRecorder`, :class:`Sanitizer`) live here;
:mod:`repro.analysis.graphlint` re-exports them.
"""

from __future__ import annotations

import zlib

import numpy as np

from .instrument import push_sink, remove_sink
from .tensor import Tensor

__all__ = [
    "TapeEntry",
    "TapeRecorder",
    "Sanitizer",
    "SanitizerError",
]


class TapeEntry:
    """One op output captured on the tape.

    Holds the live tensor (the tape pins the graph alive for the linter)
    plus a CRC of the buffer at record time, so later
    mutation of the recorded array -- autograd's cardinal sin -- is
    detectable.
    """

    __slots__ = ("tensor", "op", "seq", "crc")

    def __init__(self, tensor: Tensor, seq: int):
        self.tensor = tensor
        self.op = tensor._op
        self.seq = seq
        self.crc = zlib.crc32(np.ascontiguousarray(tensor.data).tobytes())

    def mutated(self) -> bool:
        return zlib.crc32(np.ascontiguousarray(self.tensor.data).tobytes()) != self.crc


class TapeRecorder:
    """Launch sink that captures every op output tensor (and every raw
    kernel-launch name) on the installing thread."""

    def __init__(self):
        self.entries: list[TapeEntry] = []
        self.launch_names: list[str] = []

    # sink protocol -----------------------------------------------------
    def record(self, op_name: str, nbytes: int = 0, out_shape=None, in_shapes=None) -> None:
        self.launch_names.append(op_name)

    def record_tensor(self, tensor: Tensor) -> None:
        self.entries.append(TapeEntry(tensor, len(self.entries)))

    def __len__(self) -> int:
        return len(self.entries)

    # lifecycle ---------------------------------------------------------
    def __enter__(self) -> "TapeRecorder":
        push_sink(self, wants_tensors=True)
        return self

    def __exit__(self, *exc) -> None:
        remove_sink(self, wants_tensors=True)


# ---------------------------------------------------------------------------
# dynamic NaN/Inf sanitizer
# ---------------------------------------------------------------------------
class SanitizerError(FloatingPointError):
    """Raised by :class:`Sanitizer` in ``raise`` mode at the first
    non-finite op output."""


class Sanitizer:
    """NaN/Inf guard hooks on every op, with telemetry-span attribution.

    Checks every op output on the installing thread for non-finite
    values as it is produced.  Each hit
    records the op name, the count of non-finite elements, and the
    innermost open telemetry span (e.g. ``fekf.backward``) so the failure
    is attributed to a training phase, not discovered epochs later in a
    loss printout.  ``mode="raise"`` (default) aborts at the first hit;
    ``mode="collect"`` accumulates findings for :meth:`report`.

    Install it as a context manager::

        with Sanitizer(mode="collect") as san:
            trainer.run(...)
        print(san.report().render())
    """

    def __init__(self, mode: str = "raise", max_findings: int = 100):
        if mode not in ("raise", "collect"):
            raise ValueError(f"unknown sanitizer mode {mode!r}")
        self.mode = mode
        self.max_findings = max_findings
        self.findings: list = []
        self.ops_checked = 0

    # sink protocol -----------------------------------------------------
    def record(self, op_name: str, nbytes: int = 0, out_shape=None, in_shapes=None) -> None:
        pass  # launches carry no buffer to check

    def record_tensor(self, tensor: Tensor) -> None:
        data = tensor.data
        if data.dtype.kind != "f":
            return
        self.ops_checked += 1
        if np.isfinite(data).all():
            return
        # deferred imports: autograd must stay importable without the
        # telemetry/analysis packages being initialized first
        from ..analysis.findings import Finding
        from ..telemetry.trace import current_span_name

        bad = int(np.size(data) - np.count_nonzero(np.isfinite(data)))
        span = current_span_name()
        where = f" in span {span!r}" if span else ""
        finding = Finding(
            rule="non-finite",
            message=f"op {tensor._op!r} produced {bad} non-finite "
                    f"value(s){where}",
            context={"op": tensor._op, "span": span, "count": bad},
        )
        self.findings.append(finding)
        if self.mode == "raise":
            raise SanitizerError(finding.render())
        if len(self.findings) >= self.max_findings:
            raise SanitizerError(
                f"sanitizer collected {len(self.findings)} non-finite ops; "
                f"aborting (raise max_findings to keep going)"
            )

    # lifecycle ---------------------------------------------------------
    def __enter__(self) -> "Sanitizer":
        push_sink(self, wants_tensors=True)
        return self

    def __exit__(self, *exc) -> None:
        remove_sink(self, wants_tensors=True)

    def report(self):
        from ..analysis.findings import Report

        rep = Report(tool="sanitizer", checks_run=["non-finite"])
        rep.findings.extend(self.findings)
        rep.metrics["ops_checked"] = self.ops_checked
        return rep
