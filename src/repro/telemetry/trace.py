"""Span-based tracing: the timing substrate for every perf claim.

The paper's evaluation is a set of *measurements* -- seconds per phase
(Fig. 7c), kernel launches per update (Fig. 7b), bytes per collective
(Table 5).  Rather than sprinkling ``time.perf_counter()`` pairs through
every subsystem, the hot paths open named spans::

    with telemetry.span("fekf.forward"):
        ...                     # wall + CPU time
    with telemetry.span("fekf.update", kind="energy") as sp:
        sp.add("updates", 1)    # arbitrary counters on the span

Spans nest; each completed span becomes one :class:`SpanEvent` carrying
its wall/CPU duration, depth, parent linkage, attributes, and counters.
Events flow to whatever :class:`Tracer` is active.

Tracing is *opt-in*: when no tracer is installed, :func:`span` returns a
shared no-op context manager and the instrumented code pays only one
module-global check per span -- the <5% overhead budget of the CI smoke
check.  A tracer is installed on the calling thread for the extent of
``with Tracer() as tr: ...``.

``Tracer(profile=True)`` additionally records every primitive-op launch
as a span-attributed op event (:mod:`repro.telemetry.profile`); a span's
kernel launches are the op events under it, so Figure 7b is a query over
the same event stream as Figure 7c.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = [
    "SpanEvent",
    "Span",
    "Tracer",
    "span",
    "current_tracer",
    "current_span_name",
]


@dataclass
class SpanEvent:
    """One completed span."""

    name: str
    #: monotonically increasing id, assigned when the span *opens* (so a
    #: parent always has a smaller id than its children)
    span_id: int
    #: id of the enclosing span, or ``None`` at top level
    parent_id: Optional[int]
    #: nesting depth under the tracer root (top level = 0)
    depth: int
    #: seconds since the tracer was installed, at span open
    t_start: float
    wall_s: float
    cpu_s: float
    attrs: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-ready representation (the JSONL event schema)."""
        return {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "t_start": self.t_start,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "attrs": self.attrs,
            "counters": self.counters,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SpanEvent":
        """Inverse of :meth:`as_dict` (the JSONL round-trip)."""
        return cls(
            name=d["name"],
            span_id=int(d.get("span_id", 0)),
            parent_id=d.get("parent_id"),
            depth=int(d.get("depth", 0)),
            t_start=float(d.get("t_start", 0.0)),
            wall_s=float(d.get("wall_s", 0.0)),
            cpu_s=float(d.get("cpu_s", 0.0)),
            attrs=dict(d.get("attrs", {})),
            counters=dict(d.get("counters", {})),
        )


class Span:
    """An open span; context manager handed out by :meth:`Tracer.span`."""

    __slots__ = (
        "tracer", "name", "span_id", "parent_id", "depth",
        "attrs", "counters", "_t0", "_c0",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.counters: dict = {}
        self.span_id = 0
        self.parent_id: Optional[int] = None
        self.depth = 0
        self._t0 = 0.0
        self._c0 = 0.0

    # -- counter / attribute helpers -----------------------------------
    def add(self, key: str, value: float = 1.0) -> "Span":
        """Accumulate an arbitrary counter on this span."""
        self.counters[key] = self.counters.get(key, 0) + value
        return self

    def set(self, key: str, value) -> "Span":
        """Attach/overwrite an attribute on this span."""
        self.attrs[key] = value
        return self

    # -- context protocol ----------------------------------------------
    def __enter__(self) -> "Span":
        self.tracer._open(self)
        self._t0 = time.perf_counter()
        self._c0 = time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        wall = time.perf_counter() - self._t0
        cpu = time.process_time() - self._c0
        self.tracer._close(self, wall, cpu)


class _NullSpan:
    """Shared no-op stand-in used when no tracer is active."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def add(self, key: str, value: float = 1.0) -> "_NullSpan":
        return self

    def set(self, key: str, value) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects span events and fans them out to sinks.

    Parameters
    ----------
    sinks:
        Callables invoked with each completed :class:`SpanEvent` (e.g. a
        :class:`repro.telemetry.JsonlExporter`).
    keep_events:
        Retain completed events on :attr:`events` (default).  Disable for
        unbounded runs that only stream to sinks.
    profile:
        Attach a :class:`repro.telemetry.profile.Profiler`: while this
        tracer is installed, every primitive-op launch on the installing
        thread becomes a timed, span-attributed
        :class:`~repro.telemetry.profile.OpEvent` on
        ``tracer.profiler.events`` (the Chrome-trace op timeline).  This
        is the only way to install the profiler.
    """

    def __init__(
        self,
        sinks: tuple[Callable[[SpanEvent], None], ...] | list = (),
        keep_events: bool = True,
        profile: bool = False,
    ):
        self.sinks = list(sinks)
        self.keep_events = bool(keep_events)
        self.events: list[SpanEvent] = []
        self._open_stack: list[Span] = []
        self._next_id = 0
        self._epoch = time.perf_counter()
        if profile:
            from .profile import Profiler  # lazy: profile imports this module

            self.profiler: Optional["Profiler"] = Profiler(self)
        else:
            self.profiler = None

    # -- span lifecycle (called by Span) -------------------------------
    def _open(self, sp: Span) -> None:
        sp.span_id = self._next_id
        self._next_id += 1
        if self._open_stack:
            parent = self._open_stack[-1]
            sp.parent_id = parent.span_id
            sp.depth = parent.depth + 1
        self._open_stack.append(sp)
        if self.profiler is not None:
            self.profiler.mark()

    def _close(self, sp: Span, wall: float, cpu: float) -> None:
        if self._open_stack and self._open_stack[-1] is sp:
            self._open_stack.pop()
        else:  # out-of-order exit; drop without corrupting the stack
            self._open_stack = [s for s in self._open_stack if s is not sp]
        if self.profiler is not None:
            self.profiler.mark()
        event = SpanEvent(
            name=sp.name,
            span_id=sp.span_id,
            parent_id=sp.parent_id,
            depth=sp.depth,
            t_start=sp._t0 - self._epoch,
            wall_s=wall,
            cpu_s=cpu,
            attrs=sp.attrs,
            counters=sp.counters,
        )
        if self.keep_events:
            self.events.append(event)
        for sink in self.sinks:
            sink(event)

    # -- public API ----------------------------------------------------
    def span(self, name: str, **attrs) -> Span:
        return Span(self, name, attrs)

    def emit_foreign(self, events: list[dict], **extra_attrs) -> None:
        """Merge span events captured elsewhere (a worker thread or a
        worker process, serialized via ``SpanEvent.as_dict``) into this
        tracer's stream.

        Span ids are remapped into this tracer's id space; foreign
        top-level spans attach to the currently open span (if any), so a
        rank's ``fekf.forward`` lands under the parent's
        ``parallel.compute`` exactly as the serial path would nest it.
        ``t_start`` stays relative to the *worker's* tracer epoch --
        consumers that need a global timeline should order by span id.
        """
        if not events:
            return
        parent = self._open_stack[-1] if self._open_stack else None
        base_parent_id = parent.span_id if parent is not None else None
        base_depth = parent.depth + 1 if parent is not None else 0
        idmap: dict[int, int] = {}
        for d in events:
            idmap[d["span_id"]] = self._next_id
            self._next_id += 1
        # foreign events arrive in close order (children first); re-emit
        # in open order so parents keep smaller ids than their children
        for d in sorted(events, key=lambda d: d["span_id"]):
            ev = SpanEvent(
                name=d["name"],
                span_id=idmap[d["span_id"]],
                parent_id=idmap.get(d.get("parent_id"), base_parent_id),
                depth=base_depth + d.get("depth", 0),
                t_start=d.get("t_start", 0.0),
                wall_s=d["wall_s"],
                cpu_s=d.get("cpu_s", 0.0),
                attrs={**d.get("attrs", {}), **extra_attrs},
                counters=dict(d.get("counters", {})),
            )
            if self.keep_events:
                self.events.append(ev)
            for sink in self.sinks:
                sink(ev)

    def adopt(self, child: "Tracer", **extra_attrs) -> None:
        """Fold a finished child tracer's spans (and profiler ops, when
        both sides profile) into this tracer's stream.

        This is the merge half of the capture-per-thread pattern: a
        worker thread records under its own tracer (tracer stacks are
        thread-local), and once it has been joined the owner adopts the
        events -- the serve batcher and every ``repro.online`` stage
        thread ship their spans home this way.  ``extra_attrs`` (e.g.
        ``thread="online-gate"``) are stamped on every adopted span.
        """
        if child is self:
            return
        if child.events:
            self.emit_foreign([e.as_dict() for e in child.events], **extra_attrs)
        if child.profiler is not None and self.profiler is not None:
            self.profiler.emit_foreign(
                [o.as_dict() for o in child.profiler.events], rank=-1
            )

    def summary(self) -> dict:
        """Aggregate retained events by span name (see ``export.summarize``)."""
        from .export import summarize

        return summarize(self.events)

    def chrome_trace(self) -> dict:
        """Render retained spans (+ profiler op timeline, if any) as a
        Chrome trace-event object (see ``profile.to_chrome_trace``)."""
        from .profile import to_chrome_trace

        ops = self.profiler.events if self.profiler is not None else ()
        return to_chrome_trace(self.events, ops)

    def __enter__(self) -> "Tracer":
        _stack().append(self)
        if self.profiler is not None:
            self.profiler.install()
        return self

    def __exit__(self, *exc) -> None:
        stack = _stack()
        if self in stack:
            stack.remove(self)
        if self.profiler is not None:
            self.profiler.uninstall()


class _TracerStack(threading.local):
    """Per-thread stack of installed tracers.

    Thread-locality is what lets rank workers (ThreadExecutor) capture
    spans under their *own* tracer while the parent thread's tracer keeps
    its open-span stack intact -- a shared stack would interleave
    open/close events from concurrent threads and corrupt parent linkage.
    A tracer installed on the main thread therefore does NOT see spans
    opened on other threads; workers return their events for merge via
    :meth:`Tracer.emit_foreign` instead.
    """

    def __init__(self):
        self.tracers: list[Tracer] = []


_LOCAL = _TracerStack()


def _stack() -> list[Tracer]:
    return _LOCAL.tracers


def current_tracer() -> Optional[Tracer]:
    """The innermost tracer active on the calling thread, or ``None``."""
    stack = _stack()
    return stack[-1] if stack else None


def current_span_name() -> str:
    """Name of the innermost *open* span on the calling thread's active
    tracer, or ``""`` when no tracer/span is live.  Used by diagnostics
    (e.g. the analysis sanitizer) to attribute a finding to the training
    phase it occurred in."""
    tracer = current_tracer()
    if tracer is None or not tracer._open_stack:
        return ""
    return tracer._open_stack[-1].name


def span(name: str, **attrs):
    """Open a span on the active tracer (no-op when tracing is off)."""
    stack = _stack()
    if not stack:
        return NULL_SPAN
    return stack[-1].span(name, **attrs)

