"""Background health sampler: sources -> snapshots -> SLO alerts.

A :class:`HealthMonitor` polls pluggable *health sources* -- anything
with a ``health()`` method or any zero-arg callable returning a dict --
on a fixed interval from its own daemon thread, evaluates the registered
:class:`~.slo.SLORule`\\ s against the samples, and emits one
:class:`HealthSnapshot` per tick.  State *transitions* (ok -> warn,
warn -> breach, breach -> ok recovery) become structured alert events on
the attached :class:`~repro.telemetry.export.JsonlExporter`, so a quiet
healthy run writes snapshots but zero alerts.

Wiring is one call per subsystem::

    mon = HealthMonitor(interval_s=0.25, exporter=out)
    mon.watch_service(service)          # serve windows + batcher heartbeat
    mon.watch_learner(learner)          # stage heartbeats + RMSE + swap age
    mon.start()
    ...
    mon.stop()
    manifest_metrics = mon.summary()    # snapshots, alerts, by-rule counts

Sources that raise are recorded (``{"error": ...}`` in the snapshot, a
``monitor.source_errors`` counter) and never kill the sampler: a health
plane that dies with its patient is useless.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from .slo import (
    SLORule,
    SLOStatus,
    default_online_rules,
    default_serve_rules,
    evaluate_rules,
    worst_state,
)
from ...analysis.concurrency import TrackedLock
from ..metrics import REGISTRY

__all__ = ["HealthSnapshot", "HealthMonitor"]

#: states that fire an alert on entry (and whose exit fires a recovery)
_ALERTING = ("warn", "breach")


@dataclass
class HealthSnapshot:
    """One sampler tick: every source's sample plus every rule's verdict."""

    seq: int
    #: seconds since the monitor started (monotonic delta, not wall time)
    t: float
    sources: dict = field(default_factory=dict)
    statuses: list = field(default_factory=list)
    alerts: list = field(default_factory=list)

    @property
    def worst(self) -> str:
        return worst_state(s.state for s in self.statuses)

    def as_dict(self) -> dict:
        return {
            "type": "health",
            "seq": self.seq,
            "t": self.t,
            "worst": self.worst,
            "sources": self.sources,
            "statuses": [s.as_dict() for s in self.statuses],
            "alerts": list(self.alerts),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "HealthSnapshot":
        return cls(
            seq=int(d.get("seq", 0)),
            t=float(d.get("t", 0.0)),
            sources=d.get("sources", {}),
            statuses=[SLOStatus.from_dict(s) for s in d.get("statuses", [])],
            alerts=list(d.get("alerts", [])),
        )


class HealthMonitor:
    """Periodic health sampler with declarative SLO evaluation.

    Parameters
    ----------
    interval_s:
        Sampler period.  Sub-second intervals are fine: a tick costs one
        ``health()`` call per source plus pure rule evaluation (the
        overhead benchmark holds the serving tax under 5%).
    history:
        Snapshots retained in memory for :meth:`summary` / dashboards.
    exporter:
        Optional :class:`~repro.telemetry.export.JsonlExporter`; every
        snapshot and alert is appended as a typed JSONL line.
    clock:
        Injectable monotonic time source for deterministic tests.
    """

    def __init__(
        self,
        interval_s: float = 0.25,
        history: int = 512,
        exporter=None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if interval_s <= 0.0:
            raise ValueError("interval_s must be > 0")
        self.interval_s = float(interval_s)
        self.history = int(history)
        self._exporter = exporter
        self._clock = clock
        self._t0 = clock()
        self._sources: dict[str, Callable[[], dict]] = {}
        self._rules: list[SLORule] = []
        self._states: dict[str, str] = {}  # rule name -> last alertable state
        self._lock = TrackedLock("monitor.health")
        self.snapshots: list[HealthSnapshot] = []
        self.alerts: list[dict] = []
        self._seq = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def add_source(self, name: str, source) -> None:
        """Register a health source: a zero-arg callable returning a dict,
        or an object exposing ``health()``."""
        fn = source if callable(source) else None
        if fn is None:
            health = getattr(source, "health", None)
            if not callable(health):
                raise TypeError(
                    f"source {name!r} is neither callable nor has .health()"
                )
            fn = health
        with self._lock:
            self._sources[name] = fn

    def add_rules(self, *rules: SLORule) -> None:
        with self._lock:
            self._rules.extend(rules)

    def watch_service(self, service, name: str = "serve", rules=None) -> None:
        """Attach an :class:`~repro.serve.InferenceService` under stock
        serve SLOs (pass ``rules=[]`` for sources-only, or your own)."""
        self.add_source(name, service)
        self.add_rules(*(default_serve_rules(name) if rules is None else rules))

    def watch_learner(self, learner, name: str = "online", rules=None) -> None:
        """Attach an :class:`~repro.online.OnlineLearner` under stock
        online-pipeline SLOs."""
        self.add_source(name, learner)
        self.add_rules(*(default_online_rules(name) if rules is None else rules))

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def poll_once(self, now: Optional[float] = None) -> HealthSnapshot:
        """Sample every source, evaluate every rule, record one snapshot.

        Safe to call directly (tests, synchronous checkpoints) whether or
        not the background thread is running.
        """
        now = self._clock() if now is None else now
        with self._lock:
            sources = dict(self._sources)
            rules = list(self._rules)

        samples: dict[str, dict] = {}
        for name, fn in sources.items():
            try:
                samples[name] = fn()
            except Exception as exc:  # health plane must outlive its patient
                samples[name] = {"error": f"{type(exc).__name__}: {exc}"}
                REGISTRY.counter("monitor.source_errors", source=name).inc()

        statuses = evaluate_rules(rules, samples)
        with self._lock:
            seq = self._seq
            self._seq += 1
        snap = HealthSnapshot(
            seq=seq, t=now - self._t0, sources=samples, statuses=statuses
        )

        alerts = self._transitions(snap)
        snap.alerts = alerts

        with self._lock:
            self.snapshots.append(snap)
            if len(self.snapshots) > self.history:
                del self.snapshots[: -self.history]
            self.alerts.extend(alerts)

        if self._exporter is not None:
            self._exporter.write_event(snap.as_dict())
            for alert in alerts:
                self._exporter.write_event(alert)
        return snap

    def _transitions(self, snap: HealthSnapshot) -> list[dict]:
        """Alert on state changes only; ``no_data`` counts as quiet."""
        alerts = []
        for status in snap.statuses:
            state = status.state if status.state in _ALERTING else "ok"
            prev = self._states.get(status.rule, "ok")
            if state == prev:
                continue
            self._states[status.rule] = state
            alert = {
                "type": "alert",
                "t": snap.t,
                "seq": snap.seq,
                "rule": status.rule,
                "kind": status.kind,
                "source": status.source,
                "from": prev,
                "to": state,
                "value": status.value,
                "threshold": status.threshold,
                "detail": status.detail,
            }
            alerts.append(alert)
            REGISTRY.counter("monitor.alerts", to=state).inc()
        return alerts

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "HealthMonitor":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="health-monitor", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.poll_once()
            except Exception:
                REGISTRY.counter("monitor.poll_errors").inc()

    def stop(self, final_poll: bool = True) -> None:
        """Stop the sampler thread (and take one last synchronous sample,
        so short runs always leave at least one snapshot behind)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if final_poll:
            self.poll_once()

    def __enter__(self) -> "HealthMonitor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def breaches(self) -> int:
        """Count of breach-entry alerts so far."""
        with self._lock:
            return sum(1 for a in self.alerts if a["to"] == "breach")

    def summary(self) -> dict:
        """JSON-ready aggregate of the run: snapshot and alert counts, the
        attached rules, the worst state seen and the last snapshot."""
        with self._lock:
            snaps = list(self.snapshots)
            alerts = list(self.alerts)
            rules = list(self._rules)
        by_rule: dict[str, dict] = {}
        for a in alerts:
            agg = by_rule.setdefault(a["rule"], {"warn": 0, "breach": 0, "ok": 0})
            agg[a["to"]] += 1
        return {
            "snapshots": len(snaps),
            "interval_s": self.interval_s,
            "rules": [r.as_dict() for r in rules],
            "alerts": alerts,
            "breach_alerts": sum(1 for a in alerts if a["to"] == "breach"),
            "warn_alerts": sum(1 for a in alerts if a["to"] == "warn"),
            "by_rule": by_rule,
            "worst": worst_state(s.worst for s in snaps),
            "last": snaps[-1].as_dict() if snaps else None,
        }
