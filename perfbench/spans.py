"""Benchmark-owned spans around calls into each layer's public functions.

A span is ``(id, parent, name, layer, t0, t1, attrs)``.  Spans are kept
in memory and written once at the end (JSONL plus a Chrome trace).  A
span's *self time* is its duration minus the part of that interval its
child spans cover -- overlapping children (threads) are not counted
twice.

A disabled recorder hands out one shared no-op context, so the same
driver code runs traced and untraced and the difference between the two
is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from typing import Iterable, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    layer: str
    t0: float
    t1: float
    attrs: dict

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


_NOOP = contextlib.nullcontext()


class SpanRecorder:
    """Collects spans; parentage follows the per-thread ``with`` nesting."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._stack = threading.local()

    def span(self, name: str, layer: str, **attrs):
        """Context manager timing one call into ``layer``."""
        if not self.enabled:
            return _NOOP
        return self._span(name, layer, attrs)

    @contextlib.contextmanager
    def _span(self, name: str, layer: str, attrs: dict):
        stack = getattr(self._stack, "ids", None)
        if stack is None:
            stack = self._stack.ids = []
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, parent, name, layer, t0, t1, attrs))

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (warm-up rounds of a traced run)."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def add(self, name: str, layer: str, t0: float, t1: float, **attrs) -> None:
        """Record an interval measured elsewhere (e.g. between two
        callbacks) as a child of the calling thread's open span."""
        if not self.enabled:
            return
        stack = getattr(self._stack, "ids", None)
        with self._lock:
            sid = self._next_id
            self._next_id += 1
            self.spans.append(
                Span(sid, stack[-1] if stack else None, name, layer, t0, t1, attrs)
            )

    # -- queries --------------------------------------------------------
    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def durations_ms(self, name: str) -> list[float]:
        return [s.duration * 1e3 for s in self.spans if s.name == name]

    def write(self, jsonl_path: str, chrome_path: str) -> None:
        write_jsonl(self.spans, jsonl_path)
        write_chrome(self.spans, chrome_path)


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    edge = lo
    for a, b in sorted(intervals):
        a, b = max(a, edge), min(b, hi)
        if b > a:
            total += b - a
            edge = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> self time (duration minus covered child time)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.t0, s.t1))
    return {
        s.id: s.duration - covered(children.get(s.id, ()), s.t0, s.t1)
        for s in spans
    }


def layer_table(spans: list[Span]) -> dict[str, dict]:
    """Per span name: layer, call count, total and self milliseconds."""
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(
            s.name, {"layer": s.layer, "calls": 0, "total_ms": 0.0, "self_ms": 0.0}
        )
        row["calls"] += 1
        row["total_ms"] += s.duration * 1e3
        row["self_ms"] += selfs[s.id] * 1e3
    return table


def write_jsonl(spans: list[Span], path: str) -> None:
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s._asdict()) + "\n")


def write_chrome(spans: list[Span], path: str) -> None:
    """Chrome ``chrome://tracing`` / Perfetto complete events, one track
    per layer."""
    origin = min((s.t0 for s in spans), default=0.0)
    layers = sorted({s.layer for s in spans})
    events = [
        {
            "name": s.name,
            "cat": s.layer,
            "ph": "X",
            "ts": (s.t0 - origin) * 1e6,
            "dur": s.duration * 1e6,
            "pid": 1,
            "tid": layers.index(s.layer) + 1,
            "args": {"id": s.id, "parent": s.parent, **s.attrs},
        }
        for s in spans
    ]
    for tid, layer in enumerate(layers, start=1):
        events.append(
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
             "args": {"name": layer}}
        )
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
