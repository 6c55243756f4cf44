"""Exporters: JSONL event stream, aggregated summary dict, human table.

The JSONL schema (one JSON object per line):

* span events -- ``{"type": "span", "name", "span_id", "parent_id",
  "depth", "t_start", "wall_s", "cpu_s", "attrs": {...},
  "counters": {...}}``
* metric snapshots -- ``{"type": "metrics", "data": {"counters": {...},
  "gauges": {...}, "histograms": {...}}}``
* health snapshots / SLO alerts -- ``{"type": "health", ...}`` and
  ``{"type": "alert", ...}`` lines appended by the runtime monitor
  (:mod:`repro.telemetry.monitor`) via :meth:`JsonlExporter.write_event`

so a training run's full observable record is one append-only file that
any later analysis (the Figure 7 queries, a dashboard, a diff between two
PRs) can replay without re-running the experiment.
"""

from __future__ import annotations

import io
import json
from typing import IO, Iterable, Union

from .metrics import MetricRegistry
from .trace import SpanEvent

__all__ = [
    "JsonlExporter",
    "read_jsonl",
    "summarize",
    "format_table",
]


class JsonlExporter:
    """Span-event sink writing one JSON line per event.

    Usable directly as a ``Tracer`` sink and as a context manager::

        with JsonlExporter("run.jsonl") as out, Tracer(sinks=[out]):
            ...
            out.write_metrics(telemetry.metrics.REGISTRY)
    """

    def __init__(self, target: Union[str, IO[str]]):
        if isinstance(target, str):
            self._fh: IO[str] = open(target, "w")
            self._owns = True
        else:
            self._fh = target
            self._owns = False

    def __call__(self, event: SpanEvent) -> None:
        self._fh.write(json.dumps(event.as_dict()) + "\n")

    def write_metrics(self, registry: MetricRegistry) -> None:
        """Append one metrics-snapshot line."""
        self._fh.write(
            json.dumps({"type": "metrics", "data": registry.snapshot()}) + "\n"
        )

    def write_event(self, event: dict) -> None:
        """Append one arbitrary typed event line (health snapshots and SLO
        alerts from :mod:`repro.telemetry.monitor` use this) and flush, so
        a live dashboard tailing the file sees it immediately."""
        self._fh.write(json.dumps(event, default=str) + "\n")
        self._fh.flush()

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        self._fh.flush()
        if self._owns:
            self._fh.close()

    def __enter__(self) -> "JsonlExporter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_jsonl(path: str) -> list[dict]:
    """Load every event line of a JSONL telemetry file."""
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------
def summarize(events: Iterable[SpanEvent]) -> dict:
    """Aggregate span events by name.

    Accepts :class:`SpanEvent` objects or their ``as_dict`` forms (what
    :func:`read_jsonl` returns), so a summary computed from a re-read
    JSONL file is identical to one computed live; non-span lines (metric
    snapshots, op events) are skipped.

    Returns ``{name: {"count", "wall_s", "cpu_s", "mean_wall_s",
    "min_wall_s", "max_wall_s", "counters": {...summed...}}}``.

    Note that nested spans each contribute their own full extent, so a
    parent's ``wall_s`` already contains its children's; sum *siblings*,
    not the whole table, when adding durations up.
    """
    out: dict[str, dict] = {}
    for ev in events:
        if isinstance(ev, dict):
            if ev.get("type", "span") != "span":
                continue
            ev = SpanEvent.from_dict(ev)
        agg = out.get(ev.name)
        if agg is None:
            agg = out[ev.name] = {
                "count": 0,
                "wall_s": 0.0,
                "cpu_s": 0.0,
                "min_wall_s": float("inf"),
                "max_wall_s": 0.0,
                "counters": {},
            }
        agg["count"] += 1
        agg["wall_s"] += ev.wall_s
        agg["cpu_s"] += ev.cpu_s
        agg["min_wall_s"] = min(agg["min_wall_s"], ev.wall_s)
        agg["max_wall_s"] = max(agg["max_wall_s"], ev.wall_s)
        for k, v in ev.counters.items():
            agg["counters"][k] = agg["counters"].get(k, 0) + v
    for agg in out.values():
        agg["mean_wall_s"] = agg["wall_s"] / agg["count"]
    return out


def format_table(summary: dict, sort_by: str = "wall_s") -> str:
    """Render a :func:`summarize` dict as an aligned text table."""
    headers = ["span", "count", "total s", "mean ms", "cpu s"]
    rows = []
    items = sorted(
        summary.items(), key=lambda kv: kv[1].get(sort_by, 0.0), reverse=True
    )
    for name, agg in items:
        rows.append([
            name,
            str(agg["count"]),
            f"{agg['wall_s']:.4f}",
            f"{agg['mean_wall_s'] * 1e3:.3f}",
            f"{agg['cpu_s']:.4f}",
        ])
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    out = io.StringIO()
    header = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    out.write(header + "\n")
    out.write("-" * len(header) + "\n")
    for r in rows:
        out.write("  ".join(c.ljust(w) for c, w in zip(r, widths)) + "\n")
    return out.getvalue()
