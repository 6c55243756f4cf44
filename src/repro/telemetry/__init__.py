"""repro.telemetry -- unified observability: spans, metrics, exporters.

One subsystem replaces the four ad-hoc measurement mechanisms the repo
grew up with (inline ``perf_counter`` pairs in the trainer, the one-off
Figure-7 profiler, the communication ledger's private counters, the
kernel-launch counter):

* :func:`span` / :class:`Tracer` -- nested wall/CPU-time spans with
  arbitrary counters, emitted from every hot path (``Trainer.run``,
  ``FEKF.step_batch`` phases, the data-parallel trainer).
* :data:`metrics.REGISTRY` -- process-wide counters / gauges /
  histograms with labels (communication bytes, optimizer updates).
* exporters -- JSONL event stream (:class:`JsonlExporter`), aggregated
  summaries (:func:`summarize`), human tables (:func:`format_table`).
* :mod:`profile` -- the op-level profiler (``Tracer(profile=True)``, its
  only install path): a timed, span-attributed timeline of every
  primitive-op launch with FLOP/byte estimates, per-phase Figure 7(b)
  breakdowns, and Chrome trace-event export
  (:func:`write_chrome_trace`, loadable in Perfetto).
* :mod:`monitor` -- the runtime health plane: sliding-window SLOs
  (:class:`SlidingHistogram` p99s over the last N seconds), pipeline
  watchdogs (:class:`HeartbeatRegistry`), and the
  :class:`HealthMonitor` background sampler streaming health snapshots
  and breach alerts over the JSONL exporter (live view:
  ``python -m repro.telemetry.monitor``).

Quick start::

    from repro import telemetry

    with telemetry.Tracer(profile=True) as tr:
        trainer.run(max_epochs=2)
    print(telemetry.format_table(tr.summary()))
    print(tr.profiler.format_table())          # hottest ops
    print(telemetry.metrics.REGISTRY.snapshot())

Tracing is off by default and costs one global check per span, so
instrumented code runs at full speed when nobody is watching.
"""

from . import metrics, monitor, profile
from .export import JsonlExporter, format_table, read_jsonl, summarize
from .monitor import (
    HealthMonitor,
    HealthSnapshot,
    HeartbeatRegistry,
    SLORule,
    SLOStatus,
    SlidingHistogram,
    WindowedRate,
)
from .profile import (
    OpEvent,
    Profiler,
    format_ops_table,
    summarize_ops,
    summarize_phases,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from .metrics import REGISTRY, MetricRegistry, get_registry
from .trace import (
    NULL_SPAN,
    Span,
    SpanEvent,
    Tracer,
    current_span_name,
    current_tracer,
    span,
)

__all__ = [
    "span",
    "Span",
    "SpanEvent",
    "Tracer",
    "current_tracer",
    "current_span_name",
    "NULL_SPAN",
    "metrics",
    "MetricRegistry",
    "REGISTRY",
    "get_registry",
    "JsonlExporter",
    "read_jsonl",
    "summarize",
    "format_table",
    "profile",
    "OpEvent",
    "Profiler",
    "summarize_ops",
    "summarize_phases",
    "format_ops_table",
    "to_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "monitor",
    "HealthMonitor",
    "HealthSnapshot",
    "HeartbeatRegistry",
    "SLORule",
    "SLOStatus",
    "SlidingHistogram",
    "WindowedRate",
]
