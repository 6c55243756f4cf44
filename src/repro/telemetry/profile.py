"""Op-level profiler: timed kernel timelines, phase attribution, Chrome traces.

The paper's systems claims are *per-kernel accounting* claims: Figure 7(b)
counts kernel launches per update flavour, Tables 4/5 dissect iteration
time by phase.  :class:`Profiler` turns the kernel-launch hook of
:mod:`repro.autograd.instrument` into a **timed op timeline**: every
primitive op becomes one :class:`OpEvent` carrying

* its name, output bytes, and a FLOP estimate derived from operand shapes,
* its wall-clock position and duration (the gap since the previous
  profiler event on the owning tracer's thread; span boundaries reset the
  cursor, so an op's duration covers its numpy compute plus the python
  dispatch in front of it -- the honest analog of a CUDA kernel's
  launch-to-completion interval on this eager engine),
* the innermost open telemetry span and a **phase** classification
  (``forward_energy`` / ``forward_force`` / ``force_graph`` /
  ``backward`` / ``kf_update`` / ``reduce``), which is how the live
  Figure 7(b)-style per-phase launch counts fall out of a real run.

A profiler is owned by a :class:`~repro.telemetry.trace.Tracer` --
``Tracer(profile=True)`` is the only way to get one -- and is
installed/removed together with it.  Each op event carries the id of its
innermost open span, so :func:`launches_by_span` answers "how many
launches did this span (and everything under it) make" from the span
tree alone.  Rank workers profile under their own
tracer and ship ``OpEvent.as_dict()`` payloads home inside the task
telemetry; :meth:`Profiler.emit_foreign` merges them with rank/pid-tagged
track ids, so one trace holds every rank's timeline.

Export is Chrome trace-event JSON (:func:`to_chrome_trace` /
:func:`write_chrome_trace`) -- load the file in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing`` -- plus a top-K ops
table (:func:`format_ops_table`, the sibling of
:func:`repro.telemetry.format_table`).
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional

from ..autograd import instrument as _instrument

__all__ = [
    "OpEvent",
    "Profiler",
    "PHASES",
    "classify_phase",
    "estimate_flops",
    "launches_by_span",
    "summarize_phases",
    "summarize_ops",
    "format_ops_table",
    "to_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
]

#: the canonical phase vocabulary (plus the catch-all "untracked")
PHASES = (
    "forward_energy",
    "forward_force",
    "force_graph",
    "backward",
    "kf_update",
    "reduce",
)


@dataclass
class OpEvent:
    """One primitive-op execution ("kernel launch") on the timeline."""

    name: str
    #: seconds since the owning tracer's epoch, at op start
    t_start: float
    #: gap since the previous profiler event on this timeline (see module
    #: docstring for the semantics)
    dur_s: float
    nbytes: int
    #: FLOP estimate from operand shapes (0.0 when shapes are unknown,
    #: e.g. the bare ``record_launch`` calls of the fused Kalman kernels)
    flops: float
    #: innermost open span name at execution time ("" at top level)
    span: str = ""
    #: phase classification (one of :data:`PHASES`, a span name, or
    #: "untracked")
    phase: str = "untracked"
    #: id of the innermost open span on the owning tracer (None for
    #: foreign/top-level ops)
    span_id: Optional[int] = None
    #: rank track tag; None means the parent ("main") timeline
    rank: Optional[int] = None
    #: OS pid of the recording process (distinguishes process-executor
    #: ranks from thread-executor ranks that share the parent's pid)
    pid: int = 0

    def as_dict(self) -> dict:
        """JSON-ready representation (the JSONL op-event schema)."""
        return {
            "type": "op",
            "name": self.name,
            "t_start": self.t_start,
            "dur_s": self.dur_s,
            "nbytes": self.nbytes,
            "flops": self.flops,
            "span": self.span,
            "phase": self.phase,
            "span_id": self.span_id,
            "rank": self.rank,
            "pid": self.pid,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "OpEvent":
        return cls(
            name=d["name"],
            t_start=float(d.get("t_start", 0.0)),
            dur_s=float(d.get("dur_s", 0.0)),
            nbytes=int(d.get("nbytes", 0)),
            flops=float(d.get("flops", 0.0)),
            span=d.get("span", ""),
            phase=d.get("phase", "untracked"),
            span_id=d.get("span_id"),
            rank=d.get("rank"),
            pid=int(d.get("pid", 0)),
        )


# ---------------------------------------------------------------------------
# phase classification
# ---------------------------------------------------------------------------
def classify_phase(stack) -> str:
    """Map an open-span stack (outermost..innermost, items with ``name``
    and ``attrs``) to one of the canonical phases.

    The rules mirror how the hot paths are instrumented:

    * ``fekf.forward`` inside a ``fekf.update`` or a rank's
      ``worker.task`` span is the energy- or force-update forward, by the
      nearer one's ``kind`` attr; a ``fekf.forward`` under neither, or
      under an un-kinded ``worker.task``, is the shared force-graph build
      (the serial sweep and a rank's ``force_task`` both build it before
      opening any group's ``fekf.update``);
    * ``fekf.gradient`` is the backward pass;
    * ``fekf.kalman`` is the filter algebra (serial and data-parallel
      steps alike);
    * ``parallel.comm`` is the allreduce/broadcast reduction step.
    """
    if not stack:
        return "untracked"
    inner = stack[-1].name
    if inner == "fekf.gradient":
        return "backward"
    if inner == "fekf.kalman":
        return "kf_update"
    if inner == "parallel.comm":
        return "reduce"
    if inner == "fekf.forward":
        for sp in reversed(stack[:-1]):
            if sp.name in ("fekf.update", "worker.task"):
                kind = sp.attrs.get("kind")
                if kind == "energy":
                    return "forward_energy"
                if kind == "force":
                    return "forward_force"
                break  # an un-kinded worker.task: force_task's graph build
        return "force_graph"
    return inner


# ---------------------------------------------------------------------------
# FLOP estimation from operand shapes
# ---------------------------------------------------------------------------
_ELEMENTWISE = frozenset(
    {"add", "sub", "mul", "div", "neg", "abs", "maximum", "where"}
)
_TRANSCENDENTAL = frozenset({"exp", "log", "tanh", "sqrt", "pow"})
_MOVEMENT = frozenset({"reshape", "transpose", "broadcast", "concat", "gather"})
#: cost of one transcendental evaluation, in flops (the usual rough budget)
_TRANSCENDENTAL_FLOPS = 8.0


def estimate_flops(op: str, out_shape, in_shapes) -> float:
    """Estimate the floating-point work of one primitive op.

    A deliberate order-of-magnitude model (exactly what a roofline needs):
    matmul-family ops get the 2mkn count, elementwise ops one flop per
    output element, transcendentals a fixed per-element budget, pure data
    movement zero.  Unknown shapes (bare ``record_launch`` calls) yield 0.
    """
    if out_shape is None:
        return 0.0
    out = float(math.prod(out_shape))
    if op == "matmul" and in_shapes:
        return 2.0 * in_shapes[0][-1] * out
    if op == "linear_fused" and in_shapes:
        return (2.0 * in_shapes[0][-1] + 1.0) * out
    if op in ("linear_tanh_fused", "residual_linear_tanh_fused") and in_shapes:
        # matmul + bias + tanh (+ residual add)
        return (2.0 * in_shapes[0][-1] + 1.0 + _TRANSCENDENTAL_FLOPS) * out
    if op in _ELEMENTWISE:
        return out
    if op in _TRANSCENDENTAL:
        return _TRANSCENDENTAL_FLOPS * out
    if op in ("sum", "scatter_add") and in_shapes:
        return float(math.prod(in_shapes[0]))
    if op == "p_symv_fused" and in_shapes:
        # P_eff G for m columns (output (n,) for one, (n, m) for more):
        # per column, the symmetric product with the n x n block plus the
        # two n x k products of the pending-downdate correction
        (n, _), (_, k) = in_shapes
        m = out_shape[1] if len(out_shape) == 2 else 1
        return 2.0 * m * n * n + 4.0 * m * n * k
    if op == "p_update_fused" and in_shapes:
        # rank-k flush of one triangle: k multiply-adds per stored element
        n, k = in_shapes[0]
        return float(k * n * n + k * n)
    if op in _MOVEMENT:
        return 0.0
    # default: one flop per output element (covers the fused descriptor
    # kernels' dominant gather-multiply-accumulate loosely)
    return out


# ---------------------------------------------------------------------------
# the profiler
# ---------------------------------------------------------------------------
class Profiler:
    """Timed op timeline, attributed to telemetry spans and phases.

    Owned by a :class:`~repro.telemetry.trace.Tracer`; installed as a
    kernel-launch sink (with shape forwarding) on the thread that installs
    the tracer, for exactly as long as the tracer is installed.  Only
    records while its tracer is the *innermost* tracer on the recording
    thread, so a worker's nested profiling tracer never double-counts into
    the parent's timeline.
    """

    def __init__(self, tracer, max_events: int = 2_000_000):
        self.tracer = tracer
        self.events: list[OpEvent] = []
        self.max_events = int(max_events)
        #: events discarded after :attr:`max_events` filled up
        self.dropped = 0
        self.pid = os.getpid()
        self._cursor = time.perf_counter()
        # cached attribution of the current span-stack state (recomputed
        # by mark(), not per op)
        self._span = ""
        self._span_id: Optional[int] = None
        self._phase = "untracked"

    # -- tracer lifecycle hooks ----------------------------------------
    def install(self) -> None:
        _instrument.push_sink(self, wants_shapes=True)
        self.mark()

    def uninstall(self) -> None:
        _instrument.remove_sink(self, wants_shapes=True)

    def mark(self) -> None:
        """Reset the timeline cursor and re-derive span/phase attribution
        (called by the tracer on every span open/close)."""
        stack = self.tracer._open_stack
        if stack:
            top = stack[-1]
            self._span = top.name
            self._span_id = top.span_id
        else:
            self._span = ""
            self._span_id = None
        self._phase = classify_phase(stack)
        self._cursor = time.perf_counter()

    # -- launch sink protocol ------------------------------------------
    def record(self, op_name: str, nbytes: int = 0, out_shape=None, in_shapes=None) -> None:
        from .trace import current_tracer

        if current_tracer() is not self.tracer:
            return  # a nested (worker) tracer owns this thread's ops
        t1 = time.perf_counter()
        if len(self.events) >= self.max_events:
            self.dropped += 1
            self._cursor = t1
            return
        self.events.append(
            OpEvent(
                name=op_name,
                t_start=self._cursor - self.tracer._epoch,
                dur_s=t1 - self._cursor,
                nbytes=int(nbytes),
                flops=estimate_flops(op_name, out_shape, in_shapes),
                span=self._span,
                phase=self._phase,
                span_id=self._span_id,
                rank=None,
                pid=self.pid,
            )
        )
        self._cursor = t1

    # -- cross-rank merge ----------------------------------------------
    def emit_foreign(self, ops: Iterable[dict], rank: Optional[int] = None, pid: Optional[int] = None) -> None:
        """Merge op events captured by a rank worker (serialized via
        ``OpEvent.as_dict``) into this timeline, tagging their track.

        ``t_start`` stays relative to the *worker's* tracer epoch: each
        rank is its own track with its own clock, which is exactly how the
        Chrome trace renders them.
        """
        for d in ops:
            if len(self.events) >= self.max_events:
                self.dropped += 1
                continue
            ev = OpEvent.from_dict(d)
            ev.span_id = None  # worker-local ids are meaningless here
            if rank is not None:
                ev.rank = rank
            if pid is not None:
                ev.pid = pid
            self.events.append(ev)

    # -- aggregation ----------------------------------------------------
    def phase_summary(self) -> dict[str, dict]:
        """Per-phase ``{kernels, wall_s, bytes, flops}`` breakdown."""
        return summarize_phases(self.events)

    def ops_summary(self) -> dict[str, dict]:
        return summarize_ops(self.events)

    def format_table(self, top: int = 15) -> str:
        return format_ops_table(self.events, top=top)


def summarize_phases(events: Iterable[OpEvent]) -> dict[str, dict]:
    """Aggregate op events by phase:
    ``{phase: {kernels, wall_s, bytes, flops}}``."""
    out: dict[str, dict] = {}
    for ev in events:
        if isinstance(ev, dict):
            ev = OpEvent.from_dict(ev)
        agg = out.get(ev.phase)
        if agg is None:
            agg = out[ev.phase] = {
                "kernels": 0, "wall_s": 0.0, "bytes": 0, "flops": 0.0,
            }
        agg["kernels"] += 1
        agg["wall_s"] += ev.dur_s
        agg["bytes"] += ev.nbytes
        agg["flops"] += ev.flops
    return out


def launches_by_span(span_events: Iterable, op_events: Iterable[OpEvent]) -> dict[int, int]:
    """Kernel launches per span id, each op event counted on its own span
    and on every ancestor (found by walking ``parent_id``), so a parent's
    count includes its children's.  Op events without a span id (top
    level, or merged from another tracer) count nowhere."""
    parent = {ev.span_id: ev.parent_id for ev in span_events}
    out: dict[int, int] = {}
    own = Counter(ev.span_id for ev in op_events if ev.span_id is not None)
    for sid, n in own.items():
        while sid is not None:
            out[sid] = out.get(sid, 0) + n
            sid = parent.get(sid)
    return out


def summarize_ops(events: Iterable[OpEvent]) -> dict[str, dict]:
    """Aggregate op events by name: ``{op: {count, wall_s, bytes, flops}}``."""
    out: dict[str, dict] = {}
    for ev in events:
        if isinstance(ev, dict):
            ev = OpEvent.from_dict(ev)
        agg = out.get(ev.name)
        if agg is None:
            agg = out[ev.name] = {
                "count": 0, "wall_s": 0.0, "bytes": 0, "flops": 0.0,
            }
        agg["count"] += 1
        agg["wall_s"] += ev.dur_s
        agg["bytes"] += ev.nbytes
        agg["flops"] += ev.flops
    return out


def format_ops_table(events_or_summary, top: int = 15, sort_by: str = "wall_s") -> str:
    """Render the top-K ops as an aligned text table (the op-level sibling
    of :func:`repro.telemetry.format_table`)."""
    if isinstance(events_or_summary, dict):
        summary = events_or_summary
    else:
        summary = summarize_ops(events_or_summary)
    headers = ["op", "launches", "total ms", "mean us", "MB", "MFLOP"]
    items = sorted(
        summary.items(), key=lambda kv: kv[1].get(sort_by, 0.0), reverse=True
    )[: max(top, 0)]
    rows = []
    for name, agg in items:
        n = max(agg["count"], 1)
        rows.append([
            name,
            str(agg["count"]),
            f"{agg['wall_s'] * 1e3:.3f}",
            f"{agg['wall_s'] / n * 1e6:.1f}",
            f"{agg['bytes'] / (1024 * 1024):.2f}",
            f"{agg['flops'] / 1e6:.2f}",
        ])
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    header = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Chrome trace-event export
# ---------------------------------------------------------------------------
def _track_key(rank, pid) -> tuple:
    return ("main",) if rank is None else ("rank", int(rank), int(pid))


def _track_label(key: tuple) -> str:
    if key[0] == "main":
        return "main"
    return f"rank {key[1]} (pid {key[2]})"


def to_chrome_trace(span_events: Iterable = (), op_events: Iterable = ()) -> dict:
    """Render span + op events as a Chrome trace-event JSON object.

    Tracks: the parent timeline is one Chrome "process"; every
    ``(rank, pid)`` pair seen on foreign events becomes its own process,
    so a process-executor run shows one track per rank.  Within a track,
    spans render on tid 0 and the op timeline on tid 1 ("X" complete
    events, microsecond timestamps).  Load the file in Perfetto or
    ``chrome://tracing``.
    """
    spans = []
    for ev in span_events:
        d = ev if isinstance(ev, dict) else ev.as_dict()
        spans.append(d)
    ops = []
    for ev in op_events:
        d = ev if isinstance(ev, dict) else ev.as_dict()
        ops.append(d)

    # assign one chrome pid per track, parent first then ranks in order
    keys: list[tuple] = []
    for d in spans:
        rank = d.get("attrs", {}).get("rank")
        pid = d.get("attrs", {}).get("pid", 0)
        key = _track_key(rank, pid)
        if key not in keys:
            keys.append(key)
    for d in ops:
        key = _track_key(d.get("rank"), d.get("pid", 0))
        if key not in keys:
            keys.append(key)
    keys.sort(key=lambda k: (k[0] != "main", k[1:]))
    pid_of = {k: i + 1 for i, k in enumerate(keys)}

    events: list[dict] = []
    for key, cpid in pid_of.items():
        events.append({
            "name": "process_name", "ph": "M", "pid": cpid, "tid": 0,
            "args": {"name": _track_label(key)},
        })
        events.append({
            "name": "thread_name", "ph": "M", "pid": cpid, "tid": 0,
            "args": {"name": "spans"},
        })
        events.append({
            "name": "thread_name", "ph": "M", "pid": cpid, "tid": 1,
            "args": {"name": "ops"},
        })
    for d in spans:
        attrs = d.get("attrs", {})
        key = _track_key(attrs.get("rank"), attrs.get("pid", 0))
        events.append({
            "name": d["name"],
            "cat": "span",
            "ph": "X",
            "ts": round(d.get("t_start", 0.0) * 1e6, 3),
            "dur": round(d.get("wall_s", 0.0) * 1e6, 3),
            "pid": pid_of[key],
            "tid": 0,
            "args": {**attrs, **d.get("counters", {})},
        })
    for d in ops:
        key = _track_key(d.get("rank"), d.get("pid", 0))
        events.append({
            "name": d["name"],
            "cat": "op",
            "ph": "X",
            "ts": round(d.get("t_start", 0.0) * 1e6, 3),
            "dur": round(d.get("dur_s", 0.0) * 1e6, 3),
            "pid": pid_of[key],
            "tid": 1,
            "args": {
                "phase": d.get("phase", ""),
                "span": d.get("span", ""),
                "bytes": d.get("nbytes", 0),
                "flops": d.get("flops", 0.0),
            },
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, tracer=None, span_events=None, op_events=None) -> dict:
    """Write a Chrome trace JSON file from a tracer (spans + profiler ops)
    or explicit event lists; returns the trace object."""
    if tracer is not None:
        if span_events is None:
            span_events = tracer.events
        if op_events is None and getattr(tracer, "profiler", None) is not None:
            op_events = tracer.profiler.events
    trace = to_chrome_trace(span_events or (), op_events or ())
    with open(path, "w") as fh:
        json.dump(trace, fh)
    return trace


def validate_chrome_trace(trace) -> dict:
    """Validate the Chrome trace-event schema; raises ``ValueError`` on
    the first violation.

    Returns ``{"events", "pids", "rank_tracks"}`` -- the rank-track list
    is what the CI smoke job asserts on (>= 2 distinct ranks under the
    process executor).
    """
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        raise ValueError("not a Chrome trace object (missing 'traceEvents')")
    events = trace["traceEvents"]
    if not isinstance(events, list) or not events:
        raise ValueError("'traceEvents' must be a non-empty list")
    pids: set[int] = set()
    rank_tracks: list[str] = []
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        for field in ("name", "ph", "pid", "tid"):
            if field not in ev:
                raise ValueError(f"traceEvents[{i}] missing {field!r}")
        if ev["ph"] == "X":
            for field in ("ts", "dur"):
                if not isinstance(ev.get(field), (int, float)):
                    raise ValueError(
                        f"traceEvents[{i}] 'X' event needs numeric {field!r}"
                    )
        pids.add(ev["pid"])
        if ev["ph"] == "M" and ev["name"] == "process_name":
            label = ev.get("args", {}).get("name", "")
            if label.startswith("rank "):
                rank_tracks.append(label)
    return {"events": len(events), "pids": sorted(pids), "rank_tracks": rank_tracks}
