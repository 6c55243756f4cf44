"""Runtime health plane: sliding-window SLOs, watchdogs, live monitor.

Everything the earlier telemetry layers record is retrospective -- spans
and counters summarized after a run ends.  This package watches a run
*while it executes*:

* :mod:`.window` -- :class:`SlidingHistogram` / :class:`WindowedRate`,
  time-bucketed aggregation giving p50/p99/error-rate over the last N
  seconds (worker histograms fold in via :meth:`Histogram.merge`);
* :mod:`.watchdog` -- :class:`HeartbeatRegistry`, stage heartbeats with
  dead-thread and deadline-overrun detection for the serve batcher and
  the online pipeline stages;
* :mod:`.slo` -- declarative :class:`SLORule`\\ s (p99 latency, error
  rate, queue saturation, RMSE non-regression, swap staleness,
  heartbeats) evaluated purely into ok/warn/breach
  :class:`SLOStatus`\\ es;
* :mod:`.health` -- the :class:`HealthMonitor` background sampler that
  polls health sources, applies the rules, and streams snapshots plus
  transition alerts over the JSONL exporter;
* :mod:`.dashboard` -- pure renderers behind the
  ``python -m repro.telemetry.monitor`` live terminal view.

Typical wiring::

    from repro.telemetry import JsonlExporter
    from repro.telemetry.monitor import HealthMonitor

    with JsonlExporter("health.jsonl") as out:
        mon = HealthMonitor(interval_s=0.25, exporter=out)
        mon.watch_service(service)
        mon.watch_learner(learner)
        with mon:
            ...  # run; snapshots and alerts stream to health.jsonl
        print(mon.summary()["breach_alerts"])
"""

from .dashboard import STATE_GLYPHS, render, render_timeline
from .health import HealthMonitor, HealthSnapshot
from .slo import (
    KINDS,
    SLORule,
    SLOStatus,
    default_online_rules,
    default_serve_rules,
    evaluate_rule,
    evaluate_rules,
    worst_state,
)
from .watchdog import HeartbeatRegistry
from .window import SlidingHistogram, WindowedRate

__all__ = [
    "SlidingHistogram",
    "WindowedRate",
    "HeartbeatRegistry",
    "KINDS",
    "SLORule",
    "SLOStatus",
    "evaluate_rule",
    "evaluate_rules",
    "worst_state",
    "default_serve_rules",
    "default_online_rules",
    "HealthMonitor",
    "HealthSnapshot",
    "render",
    "render_timeline",
    "STATE_GLYPHS",
]
