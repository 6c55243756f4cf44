"""Pluggable rank-worker executors: serial, thread, and process backends.

The parent-side half of the rank runtime (:mod:`repro.runtime` holds the
description and the worker-side half).  A consumer -- the data-parallel
trainer, the inference service, the streaming loader -- expresses its
work as *rounds*: every rank runs one task on its own shard through the
shared envelope (:func:`repro.runtime.run_task`), and the parent consumes
the results in rank order.  This module supplies the execution substrate
for those rounds:

* :class:`SerialExecutor` -- every rank's worker runs in the calling
  thread, one after another.  Today's deterministic default; zero
  concurrency hazards, real per-rank replicas.
* :class:`ThreadExecutor` -- one pool thread per rank.  The gradient math
  bottoms out in BLAS kernels that release the GIL, so shard compute
  overlaps on a multi-core host with zero serialization cost for the
  shard payloads (shared address space).
* :class:`ProcessExecutor` -- one persistent worker process per rank,
  each holding its own model replica.  Per-step traffic is the shard
  (once) plus the per-update weight *delta* broadcast -- mirroring the
  paper's Sec. 3.3 argument that only gradients ever travel, never P.

All three speak the same protocol (``start`` / ``submit`` / ``broadcast``
/ ``heal`` / ``close``) and, for a fixed seed, produce bit-identical
reduced gradients: the per-rank computation is a pure function of
(weights, shard) and the parent always consumes results in rank order.

Crash robustness lives here and nowhere else: a task that raises inside
a worker is retried once on the same rank -- unless the worker declares
it in ``mutating_tasks`` (a half-applied filter round must never be
replayed on the state it half-updated); a second failure, a failed
mutating task or a dead worker process surfaces from ``submit`` as
:class:`WorkerCrash`, which :meth:`Executor.run_resilient` answers with
the caller's fallback until :meth:`Executor.heal` has respawned dead
ranks and re-synced every replica from the parent's state.

The default backend is selected by the ``REPRO_EXECUTOR`` environment
variable (``serial`` / ``thread`` / ``process``), so CI can run every
consumer's suite under each backend unchanged; unset means serial for
every consumer but the online loop's trainer stage, whose per-member
filter rounds are long, stateful and dispatch-bound and default to
``process`` (:class:`repro.online.IncrementalTrainer`).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
from abc import ABC, abstractmethod
from concurrent import futures
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Optional, Sequence

from ..runtime import FaultInjector, TaskResult, retryable, run_task
from ..telemetry import metrics as _metrics

__all__ = [
    "EXECUTOR_ENV",
    "EXECUTOR_NAMES",
    "WorkerCrash",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "make_executor",
]

#: environment variable naming the default backend (see :func:`make_executor`)
EXECUTOR_ENV = "REPRO_EXECUTOR"
EXECUTOR_NAMES = ("serial", "thread", "process")


class WorkerCrash(RuntimeError):
    """A rank failed its task twice, failed a task it may not replay,
    or its process died."""

    def __init__(self, rank: int, method: str, reason: str):
        super().__init__(f"rank {rank} failed task {method!r}: {reason}")
        self.rank = rank
        self.method = method
        self.reason = reason


def _run_with_retry(
    worker, rank: int, method: str, args: tuple, capture: "bool | str"
) -> TaskResult:
    """One in-process task attempt plus a single retry (never for a
    task the worker declares state-mutating); the retry is counted so
    robustness tests can assert it happened."""
    try:
        return run_task(worker, method, args, capture)
    except Exception as first:
        if not retryable(worker, method):
            raise WorkerCrash(rank, method, repr(first)) from first
        _metrics.REGISTRY.counter("parallel.worker_retries").inc()
        try:
            return run_task(worker, method, args, capture)
        except Exception as second:
            raise WorkerCrash(rank, method, repr(second)) from first


class Executor(ABC):
    """One worker per rank (built by ``spec.build(rank)``) plus a
    dispatch protocol.

    ``submit`` takes one ``(method, args)`` call per rank and returns the
    rank-ordered :class:`TaskResult` list; ``broadcast`` sends the same
    call to every rank.  Both raise :class:`WorkerCrash` when a rank
    fails twice; :meth:`run_resilient` is ``submit`` with the crash
    turned into the caller's fallback.
    """

    name = "abstract"

    def __init__(self, world_size: int):
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        self.world_size = int(world_size)
        self._started = False
        #: a rank crashed since the last :meth:`heal`; while set,
        #: :meth:`run_resilient` goes straight to the fallback
        self.degraded = False
        #: called with the rank as ``submit`` collects each rank's result
        #: (rank order) -- a caller blocked on a long round reports
        #: progress through it
        self.on_result: Optional[Callable[[int], None]] = None
        #: pickled bytes this executor wrote to / read from its ranks
        #: (stays 0 where ranks share the parent's address space)
        self.bytes_sent = 0
        self.bytes_received = 0

    # ------------------------------------------------------------------
    @abstractmethod
    def start(self, spec) -> None:
        """Build/spawn one worker per rank from ``spec``."""

    @abstractmethod
    def submit(
        self, calls: Sequence[tuple[str, tuple]], capture: bool = False
    ) -> list[TaskResult]:
        """Dispatch one ``(method, args)`` call per rank; rank order out."""

    @abstractmethod
    def close(self) -> None:
        """Tear down workers (idempotent)."""

    # ------------------------------------------------------------------
    def broadcast(self, method: str, *args, capture: bool = False) -> list[TaskResult]:
        """Run the same call on every rank (e.g. the weight-delta sync)."""
        return self.submit([(method, args)] * self.world_size, capture=capture)

    def run_resilient(
        self,
        calls: Sequence[tuple[str, tuple]],
        fallback: Callable[[Sequence[tuple[str, tuple]], "bool | str"], list],
        capture: "bool | str" = False,
    ) -> list[TaskResult]:
        """``submit``, never losing the round: a :class:`WorkerCrash` is
        counted, marks the pool degraded and is answered by
        ``fallback(calls, capture)`` -- as is every later round until
        :meth:`heal` clears the flag (a crashed rank's replica is stale,
        and per-rank work is a pure function the caller can recompute)."""
        if not self.degraded:
            try:
                return self.submit(calls, capture=capture)
            except WorkerCrash:
                _metrics.REGISTRY.counter("parallel.serial_fallbacks").inc()
                self.degraded = True
        return fallback(calls, capture)

    def heal(self, spec, payloads: Optional[Sequence]) -> None:
        """Restore every rank to a healthy state: respawn whatever died
        and push ``payloads`` -- one ``set_weights`` payload per rank
        (replicas get the parent's weights each, a state-owning rank its
        own state), or ``None`` for stateless ranks and ranks that were
        never given weights."""
        self._respawn_dead(spec)
        if payloads is not None:
            self.submit([("set_weights", (p,)) for p in payloads])
        self.degraded = False
        _metrics.REGISTRY.counter("parallel.executor_heals").inc()

    def alive(self) -> list[bool]:
        """Per-rank liveness (in-process ranks live as long as the pool)."""
        return [self._started] * self.world_size

    def inject_fault(self, rank: int, fault: Optional[FaultInjector]) -> None:
        """Install a fault injector on one rank and clear every other
        rank's (robustness tests)."""
        faults: list = [None] * self.world_size
        faults[rank] = fault
        self.submit([("set_fault", (f,)) for f in faults])

    def _respawn_dead(self, spec) -> None:
        """Backends with mortal workers (processes) override this."""

    def _collected(self, rank: int) -> None:
        if self.on_result is not None:
            self.on_result(rank)

    def _check_calls(self, calls: Sequence[tuple[str, tuple]]) -> None:
        if not self._started:
            raise RuntimeError("executor not started (call start(spec) first)")
        if len(calls) != self.world_size:
            raise ValueError(
                f"expected {self.world_size} calls, got {len(calls)}"
            )

    # ------------------------------------------------------------------
    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


class SerialExecutor(Executor):
    """All ranks run sequentially in the calling thread.

    The deterministic reference backend (and the default): identical
    semantics to the concurrent backends -- per-rank replicas, the same
    task vocabulary -- with none of the scheduling.
    """

    name = "serial"

    def __init__(self, world_size: int):
        super().__init__(world_size)
        self.workers: list = []

    def start(self, spec) -> None:
        self.workers = [spec.build(rank=r) for r in range(self.world_size)]
        self._started = True

    def submit(self, calls, capture=False):
        self._check_calls(calls)
        results = []
        for r, (w, (method, args)) in enumerate(zip(self.workers, calls)):
            results.append(_run_with_retry(w, r, method, args, capture))
            self._collected(r)
        return results

    def close(self) -> None:
        self.workers = []
        self._started = False


class ThreadExecutor(Executor):
    """One pool thread per rank; shard compute overlaps where BLAS
    releases the GIL.  Worker state is rank-private (each rank owns its
    replica and is only ever touched by one in-flight task), and worker
    telemetry is captured under thread-local tracers, so no parent state
    is shared mutably across threads."""

    name = "thread"

    def __init__(self, world_size: int):
        super().__init__(world_size)
        self.workers: list = []
        self._pool: Optional[futures.ThreadPoolExecutor] = None

    def start(self, spec) -> None:
        self.workers = [spec.build(rank=r) for r in range(self.world_size)]
        self._pool = futures.ThreadPoolExecutor(
            max_workers=self.world_size, thread_name_prefix="fekf-rank"
        )
        self._started = True

    def submit(self, calls, capture=False):
        self._check_calls(calls)
        fs = [
            self._pool.submit(_run_with_retry, w, r, method, args, capture)
            for r, (w, (method, args)) in enumerate(zip(self.workers, calls))
        ]
        # collect in rank order, not completion order (determinism of
        # the reduction), and wait for EVERY future before surfacing
        # anything -- a straggler task left running would race the
        # caller's fallback/heal work
        results, crash = [], None
        try:
            for rank, f in enumerate(fs):
                try:
                    results.append(f.result())
                    self._collected(rank)
                except WorkerCrash as exc:
                    crash = crash or exc
                    results.append(None)
        finally:
            futures.wait(fs)
        if crash is not None:
            raise crash
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self.workers = []
        self._started = False


#: how often an idle worker process checks that its parent still exists
_ORPHAN_POLL_S = 5.0


def _process_main(conn, spec, rank: int) -> None:
    """Worker-process loop: build a replica once, serve tasks until EOF.

    Exceptions raised by a task are reported back as ``("err", reason)``
    -- the process survives, so the parent's retry hits a live worker --
    or as ``("fatal", reason)`` for a task that must not be replayed.
    """
    worker = spec.build(rank=rank)
    parent = os.getppid()
    try:
        while True:
            # a forked sibling inherits this pipe's parent end, so a
            # killed parent never reads as EOF here: look for it instead
            # of idling (with the member's P) forever
            while not conn.poll(_ORPHAN_POLL_S):
                if os.getppid() != parent:
                    return
            msg = conn.recv()
            if msg is None:
                break
            method, args, capture = msg
            try:
                result = run_task(worker, method, args, capture)
                conn.send(("ok", result))
            except Exception as exc:
                status = "err" if retryable(worker, method) else "fatal"
                conn.send((status, repr(exc)))
    except (EOFError, OSError, KeyboardInterrupt):  # parent went away
        pass
    finally:
        conn.close()


class ProcessExecutor(Executor):
    """One persistent worker process per rank.

    Each process builds its replica once and then receives only task
    messages -- for a training step that is the shard (once) and the
    per-update weight deltas, never the model and never P.  A rank whose
    task raises is retried in place (a state-mutating task is not); a
    rank whose *process* dies is unrecoverable within the round
    (``WorkerCrash``) and is respawned by ``heal``.
    """

    name = "process"

    def __init__(self, world_size: int, start_method: Optional[str] = None):
        super().__init__(world_size)
        self._ctx = (
            mp.get_context(start_method) if start_method else mp.get_context()
        )
        self._procs: list[Optional[mp.process.BaseProcess]] = []
        self._conns: list[Optional[Any]] = []
        self._dead: set[int] = set()

    # ------------------------------------------------------------------
    def _spawn(self, spec, rank: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_process_main,
            args=(child_conn, spec, rank),
            name=f"fekf-rank-{rank}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._procs[rank] = proc
        self._conns[rank] = parent_conn
        self._dead.discard(rank)

    def start(self, spec) -> None:
        self._procs = [None] * self.world_size
        self._conns = [None] * self.world_size
        self._dead = set()
        for rank in range(self.world_size):
            self._spawn(spec, rank)
        self._started = True

    # ------------------------------------------------------------------
    def _send(self, rank: int, msg) -> None:
        if rank in self._dead:
            raise WorkerCrash(rank, msg[0] if msg else "?", "worker process dead")
        try:
            # Connection.send, with the wire size counted on the way
            buf = ForkingPickler.dumps(msg)
            self.bytes_sent += len(buf)
            self._conns[rank].send_bytes(buf)
        except (OSError, BrokenPipeError, ValueError) as exc:
            self._mark_dead(rank)
            raise WorkerCrash(
                rank, msg[0] if msg else "?", f"send failed: {exc!r}"
            ) from exc

    def _recv(self, rank: int, method: str):
        try:
            buf = self._conns[rank].recv_bytes()
        except (EOFError, OSError) as exc:
            self._mark_dead(rank)
            raise WorkerCrash(
                rank, method, f"worker process died: {exc!r}"
            ) from exc
        self.bytes_received += len(buf)
        return pickle.loads(buf)

    def _mark_dead(self, rank: int) -> None:
        self._dead.add(rank)
        _metrics.REGISTRY.counter("parallel.worker_deaths").inc()

    def submit(self, calls, capture=False):
        self._check_calls(calls)
        # overlap: post every rank's task before collecting any result;
        # every successfully sent task must also be received (even after
        # another rank crashed), or the pipe protocol would desync
        crash: Optional[WorkerCrash] = None
        sent = [False] * self.world_size
        for rank, (method, args) in enumerate(calls):
            try:
                self._send(rank, (method, args, capture))
                sent[rank] = True
            except WorkerCrash as exc:
                crash = crash or exc
        results: list[Optional[TaskResult]] = [None] * self.world_size
        failed: list[int] = []
        for rank, (method, _args) in enumerate(calls):
            if not sent[rank]:
                continue
            try:
                status, payload = self._recv(rank, method)
            except WorkerCrash as exc:
                crash = crash or exc
                continue
            if status == "ok":
                results[rank] = payload
                self._collected(rank)
            elif status == "err":
                failed.append(rank)
            else:  # "fatal": a state-mutating task is never replayed
                crash = crash or WorkerCrash(rank, method, str(payload))
        for rank in failed:
            method, args = calls[rank]
            _metrics.REGISTRY.counter("parallel.worker_retries").inc()
            try:
                self._send(rank, (method, args, capture))
                status, payload = self._recv(rank, method)
            except WorkerCrash as exc:
                crash = crash or exc
                continue
            if status != "ok":
                crash = crash or WorkerCrash(rank, method, str(payload))
                continue
            results[rank] = payload
            self._collected(rank)
        if crash is not None:
            raise crash
        return results

    # ------------------------------------------------------------------
    def alive(self) -> list[bool]:
        if not self._started:
            return [False] * self.world_size
        return [
            rank not in self._dead and proc.is_alive()
            for rank, proc in enumerate(self._procs)
        ]

    def _respawn_dead(self, spec) -> None:
        for rank in range(self.world_size):
            proc = self._procs[rank]
            if rank in self._dead or proc is None or not proc.is_alive():
                if proc is not None:
                    proc.join(timeout=1.0)
                    if proc.is_alive():  # pragma: no cover - stuck child
                        proc.terminate()
                if self._conns[rank] is not None:
                    self._conns[rank].close()
                self._spawn(spec, rank)
                _metrics.REGISTRY.counter("parallel.worker_respawns").inc()

    def close(self) -> None:
        for rank, conn in enumerate(self._conns):
            if conn is None or rank in self._dead:
                continue
            try:
                conn.send(None)
            except (OSError, BrokenPipeError, ValueError):
                pass
        for proc in self._procs:
            if proc is not None:
                proc.join(timeout=2.0)
                if proc.is_alive():  # pragma: no cover - stuck child
                    proc.terminate()
        for conn in self._conns:
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
        self._procs = []
        self._conns = []
        self._dead = set()
        self._started = False


_BACKENDS = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
}


def make_executor(
    kind: "str | Executor | None", world_size: int, default: str = "serial"
) -> Executor:
    """Resolve an executor: an instance passes through, a name selects a
    backend, ``None`` consults ``$REPRO_EXECUTOR`` and falls back to the
    consumer's ``default`` (``serial`` everywhere but the online loop's
    trainer stage)."""
    if isinstance(kind, Executor):
        if kind.world_size != world_size:
            raise ValueError(
                f"executor world_size {kind.world_size} != trainer world_size "
                f"{world_size}"
            )
        return kind
    if kind is None:
        kind = os.environ.get(EXECUTOR_ENV) or default
    key = str(kind).lower()
    if key not in _BACKENDS:
        raise KeyError(
            f"unknown executor {kind!r}; available: {', '.join(EXECUTOR_NAMES)}"
        )
    return _BACKENDS[key](world_size)
