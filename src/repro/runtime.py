"""The rank runtime's worker-side half: one task envelope, one telemetry
merge, shared by every consumer of :mod:`repro.parallel.executor`.

The funnel dataflow of the paper (Sec. 3.1 / 3.3) makes every rank's
work a pure function of its inputs -- (weights, shard) for a gradient
rank, (weights, frames) for a prediction rank, (source, indices) for a
prefetch rank.  Two things follow, and this module plus
:meth:`Executor.run_resilient <repro.parallel.executor.Executor.
run_resilient>` state them once for the trainer, the inference service
and the streaming loader alike:

* **A rank is a plain object.**  A worker class declares ``tasks`` (the
  method names an executor may dispatch), ``span`` / ``compute_tasks``
  (the span its compute tasks run under when the parent captures
  telemetry, and that span's attributes per task), ``counter`` (the
  per-task counter it reports) and, optionally, ``mutating_tasks`` (the
  long tasks that advance state the rank owns -- a filter round -- and
  so must never be replayed, see below).  :func:`run_task` is the only way an
  executor -- or a caller's fallback -- runs a task on it: whitelist
  check, fault check, wall timing, optional worker-local
  :class:`~repro.telemetry.trace.Tracer` / profiler capture, and the
  :class:`TaskResult` envelope.  Workers never touch the parent's tracer
  or registry; the parent folds their telemetry in with
  :func:`merge_worker_telemetry`.
* **A crashed rank can always be recomputed by the caller.**  A task
  that raises is retried once in place; a second failure (or a dead
  worker process) surfaces as ``WorkerCrash``, which ``run_resilient``
  counts, marks the pool degraded, and answers with the caller-supplied
  fallback -- the same calls run through :func:`run_task` on a
  caller-owned worker.  The pool stays on the fallback until the caller
  ``heal``\\ s it (respawn + weight re-sync).  A crash costs wall time,
  never a training step, a served batch or a prefetched epoch.  The one
  exception to "pure function of its inputs" is a rank that *owns* state
  (the online trainer's per-member filter): a task named in its
  ``mutating_tasks`` that raised half-way has half-updated that state,
  so the envelope skips the in-place retry (:func:`retryable`) and goes
  straight to ``WorkerCrash`` -- the caller's fallback restores the
  state from its own copy instead of replaying on a corrupt one.

Fault injection is part of the envelope: the ``set_fault`` task installs
a picklable :class:`FaultInjector` on any worker, so the retry /
fallback / heal path of every consumer is testable without
monkeypatching.

This is a leaf module (it imports only :mod:`repro.telemetry`) so that
:mod:`repro.optim`, :mod:`repro.serve` and :mod:`repro.data` can all
share it without importing each other or :mod:`repro.parallel`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any

from .telemetry import metrics as _metrics
from .telemetry.trace import Tracer

__all__ = [
    "WorkerTelemetry",
    "TaskResult",
    "FaultInjector",
    "capture_mode",
    "retryable",
    "run_task",
    "merge_worker_telemetry",
]


@dataclass
class WorkerTelemetry:
    """Telemetry captured locally by a worker for one task (picklable)."""

    rank: int = 0
    #: OS pid of the worker (distinguishes process-executor tracks from
    #: in-process ranks in the merged Chrome trace)
    pid: int = 0
    wall_s: float = 0.0
    counters: dict = field(default_factory=dict)
    #: ``SpanEvent.as_dict()`` payloads captured under a worker-local
    #: tracer (empty unless the parent asked for capture)
    spans: list = field(default_factory=list)
    #: ``OpEvent.as_dict()`` payloads from a worker-local profiler
    #: (empty unless the parent asked for ``capture="profile"``)
    ops: list = field(default_factory=list)


@dataclass
class TaskResult:
    """Envelope returned by :func:`run_task` for every task."""

    payload: Any
    telemetry: WorkerTelemetry


@dataclass
class FaultInjector:
    """Picklable test hook: degrade ``method`` for its next ``times`` calls.

    The default is a hard failure (``raises=True``); ``stall_s`` sleeps
    inside the task first, and with ``raises=False`` the task then
    *succeeds slowly* -- a wedged-but-alive worker, which is what the
    watchdog / latency-SLO tests need to provoke (a crash is caught by
    the executor's heal path long before any deadline fires).
    """

    method: str
    times: int = 1
    message: str = "injected worker fault"
    #: seconds to block inside the targeted task before (maybe) raising
    stall_s: float = 0.0
    #: when False the fault only stalls -- no exception
    raises: bool = True

    def check(self, method: str, rank: int) -> None:
        if self.times > 0 and method == self.method:
            self.times -= 1
            if self.stall_s > 0.0:
                time.sleep(self.stall_s)
            if self.raises:
                raise RuntimeError(f"{self.message} (rank {rank}, {method})")


def capture_mode(tracer) -> "bool | str":
    """What a parent running under ``tracer`` asks of its workers:
    nothing, spans, or (when it profiles) spans plus the op timeline."""
    if tracer is None:
        return False
    return "profile" if tracer.profiler is not None else True


def retryable(worker, method: str) -> bool:
    """May ``method`` be re-run on ``worker`` after it raised?  Not if
    the worker declares it state-mutating: the first attempt's partial
    update is still there."""
    return method not in getattr(worker, "mutating_tasks", ())


def run_task(
    worker, method: str, args: tuple = (), capture: "bool | str" = False
) -> TaskResult:
    """Run one task on ``worker`` inside the shared envelope.

    ``capture`` truthy records the task under a worker-local tracer (its
    compute tasks wrapped in the worker's declared span, so rank spans
    nest under the parent's round span after the merge);
    ``capture="profile"`` additionally attaches a worker-local op-level
    profiler whose timeline rides back in :attr:`WorkerTelemetry.ops`.
    """
    if method != "set_fault" and method not in worker.tasks:
        raise ValueError(f"unknown {type(worker).__name__} task {method!r}")
    fault = getattr(worker, "fault", None)
    if fault is not None:
        fault.check(method, worker.rank)
    t0 = time.perf_counter()
    spans: list = []
    ops: list = []
    if method == "set_fault":
        worker.fault, payload = args[0], None
    elif not capture:
        payload = getattr(worker, method)(*args)
    else:
        with Tracer(keep_events=True, profile=capture == "profile") as tracer:
            attrs = worker.compute_tasks.get(method)
            if attrs is None:
                payload = getattr(worker, method)(*args)
            else:
                with tracer.span(worker.span, method=method, **attrs):
                    payload = getattr(worker, method)(*args)
        spans = [e.as_dict() for e in tracer.events]
        if tracer.profiler is not None:
            ops = [o.as_dict() for o in tracer.profiler.events]
    telemetry = WorkerTelemetry(
        rank=worker.rank,
        pid=os.getpid(),
        wall_s=time.perf_counter() - t0,
        counters={worker.counter: 1.0},
        spans=spans,
        ops=ops,
    )
    return TaskResult(payload=payload, telemetry=telemetry)


def merge_worker_telemetry(results, tracer, **labels) -> float:
    """Fold the worker-local telemetry of one round into the parent's
    registry and ``tracer`` (``None``: counters only).

    ``labels`` tag the merged counters and spans (e.g. ``executor=``);
    spans and ops are additionally tagged with their rank and pid.
    Returns the max rank wall time -- the simulated-cluster compute cost
    of the round.
    """
    profiler = tracer.profiler if tracer is not None else None
    max_wall = 0.0
    for res in results:
        tel = res.telemetry
        max_wall = max(max_wall, tel.wall_s)
        _metrics.REGISTRY.merge_counters(tel.counters, **labels)
        if tracer is not None and tel.spans:
            tracer.emit_foreign(tel.spans, rank=tel.rank, pid=tel.pid, **labels)
        if profiler is not None and tel.ops:
            profiler.emit_foreign(tel.ops, rank=tel.rank, pid=tel.pid)
    return max_wall
