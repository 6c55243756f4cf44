"""The batched inference service: micro-batching, caching, hot swap.

:class:`InferenceService` wraps any :class:`repro.model.InferenceSession`
and serves its predictions to concurrent clients through the *same*
session protocol -- a client cannot tell (other than by throughput)
whether it holds a bare :class:`~repro.model.ModelSession` or a server
multiplexing eight MD walkers onto one forward pass.

Request path
------------
``predict_many`` (``predict`` is a bundle of one) fingerprints its
frames, consults the prediction cache, and queues the misses as one
*bundle*, admitted whole or refused whole.  A single work-conserving
batcher thread flushes whatever compatible work (same atom count,
species, and cell) is queued as soon as it is free: whole bundles in
FIFO order up to ``max_batch`` frames, cutting only a bundle larger
than that.  What arrives during a batch coalesces into the next one,
so batches grow with load and no request waits on a timer.  Each
micro-batch becomes one neighbor-cached
:class:`DescriptorBatch`, sharded across the rank workers of a
:mod:`repro.parallel.executor` backend and stitched back in rank order
-- so results are bit-identical to a direct ``predict_many`` on the
wrapped session, batched or not, sharded or not.

Hot swap
--------
``swap(state)`` loads new weights into the service's local session,
bumps the monotonic ``model_version``, records the payload for the lazy
worker broadcast, and purges the prediction cache.  The batcher
snapshots ``(version, payload)`` *once per micro-batch* and syncs
workers before dispatch, so every batch -- and therefore every response,
and every ``predict_many`` of up to ``max_batch`` frames -- is computed
entirely under a single version; requests in flight when
``swap`` lands simply drain under the version they were dispatched with.
Every :class:`~repro.model.Prediction` carries the version that produced
it, which is what the swap tests assert on.

Degradation
-----------
Submissions beyond ``max_queue`` are rejected with
:class:`ServeOverloaded` (backpressure, never unbounded memory); a
request that waits longer than its timeout raises :class:`ServeTimeout`
at the caller and is skipped by the batcher.  Rank crashes are the rank
runtime's business (:mod:`repro.runtime`): the batch is dispatched with
:meth:`Executor.run_resilient`, the fallback runs the same shards on the
service's own session, and the pool is healed after the batch.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from typing import Optional

import numpy as np

from ..md.cell import Cell
from ..md.neighbor import batch_neighbor_tables
from ..model.environment import DescriptorBatch
from ..model.session import (
    InferenceSession,
    Prediction,
    frame_fingerprint,
    frames_to_batch,
)
from ..analysis.concurrency import Guarded, TrackedRLock
from ..parallel.executor import Executor, make_executor
from ..runtime import capture_mode, merge_worker_telemetry, run_task
from ..telemetry import metrics as _metrics
from ..telemetry.metrics import Histogram
from ..telemetry.monitor import HeartbeatRegistry, SlidingHistogram, WindowedRate
from ..telemetry.trace import Tracer, current_tracer, span as _span
from .admission import (
    AdmissionController,
    ServeError,
    ServeOverloaded,
    ServeTimeout,
    ServiceStopped,
)
from .cache import LRUCache
from .config import ServeConfig
from .worker import PredictSpec, PredictWorker

__all__ = [
    "ServeError",
    "ServeOverloaded",
    "ServeTimeout",
    "ServiceStopped",
    "InferenceService",
]


class _Request:
    """One queued frame plus its rendezvous state."""

    __slots__ = (
        "positions", "species", "cell", "fingerprint", "group_key",
        "event", "prediction", "error", "timeout_s", "deadline", "t_submit",
        "cancelled",
    )

    def __init__(self, positions, species, cell, fingerprint, group_key, timeout_s):
        self.positions = positions
        self.species = species
        self.cell = cell
        self.fingerprint = fingerprint
        self.group_key = group_key
        self.event = threading.Event()
        self.prediction: Optional[Prediction] = None
        self.error: Optional[Exception] = None
        self.timeout_s = timeout_s
        self.deadline = time.monotonic() + timeout_s
        self.t_submit = time.perf_counter()
        self.cancelled = False


class InferenceService(InferenceSession):
    """Serve an :class:`InferenceSession` to concurrent clients.

    Parameters
    ----------
    session:
        The prediction surface to serve (a :class:`ModelSession`, a
        :class:`ModelEnsemble` for uncertainty-carrying responses, or a
        :class:`DeePMDCalculator`).
    config:
        Micro-batching / caching / degradation knobs.
    """

    def __init__(self, session: InferenceSession, config: Optional[ServeConfig] = None):
        self._session = session
        self.config = config or ServeConfig()
        # tracked locks: the lock-order recorder sees the batch-cond and
        # swap-lock nesting, and Guarded fields declare their guard
        self._cond_lock = TrackedRLock("serve.batch")
        self._cond = threading.Condition(self._cond_lock)
        # reentrant: swap() and the batcher's fallback nest it under
        # their own holds
        self._swap_lock = TrackedRLock("serve.swap")
        #: FIFO of bundles, each the queued misses of one predict_many
        self._queue: list[list[_Request]] = []
        self._stopping = False
        self._drain = True
        self._started = False
        self._thread: Optional[threading.Thread] = None
        self._executor: Optional[Executor] = None
        self._spec: Optional[PredictSpec] = None
        #: the service's own session as a rank worker: the pool-less
        #: path and the crash fallback both run through it
        self._local = PredictWorker(session)
        #: swap payload not yet broadcast to workers (lazy sync)
        self._pending_state = Guarded(None, self._swap_lock,
                                      name="serve.pending_state")
        self._worker_version = Guarded(session.model_version,
                                       self._swap_lock,
                                       name="serve.worker_version")
        #: the shared admit/reject policy (see repro.serve.admission)
        self._admission = AdmissionController(
            self.config.max_queue, name="serve request queue"
        )
        self._neighbor_cache = LRUCache(self.config.cache_capacity)
        self._prediction_cache = LRUCache(self.config.cache_capacity)
        #: service-local distributions (the global REGISTRY also gets the
        #: counters, but a benchmark comparing two service instances needs
        #: per-instance stats)
        self._latency = Histogram()
        self._occupancy = Histogram()
        #: live view for the health plane: latency / throughput / errors
        #: over the last ``config.window_s`` seconds, plus per-rank task
        #: times folded home from worker telemetry
        self._latency_window = SlidingHistogram(window_s=self.config.window_s)
        self._traffic = WindowedRate(window_s=self.config.window_s)
        self._worker_window = SlidingHistogram(window_s=self.config.window_s)
        #: batcher liveness beacon (a HealthMonitor source via health())
        self.heartbeats = HeartbeatRegistry()
        self._counts = {
            "requests": 0, "responses": 0, "batches": 0, "cache_hits": 0,
            "timeouts": 0, "rejected": 0, "fallbacks": 0,
        }
        self._ambient_tracer: Optional[Tracer] = None
        self._loop_tracer: Optional[Tracer] = None
        self._capture: "bool | str" = False

    # ------------------------------------------------------------------
    # InferenceSession surface
    # ------------------------------------------------------------------
    @property
    def cfg(self):
        return self._session.cfg

    @property
    def model_version(self) -> int:
        return self._session.model_version

    def predict_descriptor_batch(self, batch: DescriptorBatch) -> dict:
        """Direct (unbatched, uncached) path through the local session."""
        with self._swap_lock:
            return self._session.predict_descriptor_batch(batch)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "InferenceService":
        """Spin up the worker pool and the batcher thread."""
        if self._started:
            return self
        self._stopping = False
        models = getattr(self._session, "models", None)
        if models is None:
            model = getattr(self._session, "model", None)
            models = None if model is None else [model]
        if models is not None:
            self._spec = PredictSpec(models=list(models))
            with self._swap_lock:
                self._executor = make_executor(
                    self.config.executor, self.config.world_size
                )
                self._executor.start(self._spec)
                # replicas are deep copies of the session's *current* models
                self._worker_version.set(self._session.model_version)
        # telemetry is pay-for-what-you-use: capture worker spans only
        # when the starting thread has a tracer installed
        self._ambient_tracer = current_tracer()
        self._capture = capture_mode(self._ambient_tracer)
        self._thread = threading.Thread(
            target=self._serve_loop, name="serve-batcher", daemon=True
        )
        self._thread.start()
        # watchdog: the batcher beats every collect iteration (<=50ms idle
        # wait), so a beat older than the deadline means a wedged batch --
        # a stalled worker, not an idle queue
        self.heartbeats.register(
            "serve-batcher",
            deadline_s=self.config.heartbeat_deadline_s,
            thread=self._thread,
        )
        self._started = True
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the batcher (``drain=True`` finishes queued requests
        first; ``False`` fails them with :class:`ServiceStopped`) and
        tear down the worker pool."""
        if not self._started:
            return
        with self._cond:
            self._stopping = True
            self._drain = drain
            self._cond.notify_all()
        self._thread.join()
        self._thread = None
        with self._swap_lock:
            if self._executor is not None:
                self._executor.close()
                self._executor = None
        self._merge_loop_telemetry()
        self._started = False

    def __enter__(self) -> "InferenceService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------
    def predict(
        self,
        positions: np.ndarray,
        species: np.ndarray,
        cell: Cell,
        timeout: Optional[float] = None,
    ) -> Prediction:
        """One frame through the batching queue (blocking)."""
        return self.predict_many(np.asarray(positions)[None], species, cell, timeout)[0]

    def predict_many(
        self,
        frames: np.ndarray,
        species: np.ndarray,
        cell: Cell,
        timeout: Optional[float] = None,
    ) -> list[Prediction]:
        """Submit the frames as one bundle, then collect: the cache misses
        are admitted (and batched) whole, or all refused and counted so."""
        frames = np.asarray(frames, dtype=np.float64)
        species = np.asarray(species, dtype=np.int64)
        c, skey, n = self.cfg, species.tobytes(), len(frames)
        fps = [frame_fingerprint(pos, cell, c.rcut, c.nmax) for pos in frames]
        lengths = np.asarray(cell.lengths, dtype=np.float64).tobytes()
        group_key = (frames.shape[1], skey, lengths)
        timeout_s = self.config.request_timeout_s if timeout is None else float(timeout)
        out: list = [None] * n
        with self._cond:
            if self._stopping or not self._started:
                raise ServiceStopped("inference service is not running")
            self._counts["requests"] += n
            _metrics.REGISTRY.counter("serve.requests").inc(n)
            if self.config.cache_predictions:
                version = self._session.model_version
                out = [self._prediction_cache.get((fp, skey, version)) for fp in fps]
            miss = [k for k, hit in enumerate(out) if hit is None]
            depth = self._depth() + len(miss) - 1  # as the last miss queues
            if miss and not self._admission.admits(depth):
                self._counts["rejected"] += n
                _metrics.REGISTRY.counter("serve.rejected").inc(n)
                self._traffic.mark(n, errors=n)
                self._admission.check(depth)  # raises ServeOverloaded
            hits = n - len(miss)
            if hits:
                self._counts["cache_hits"] += hits
                self._counts["responses"] += hits
                _metrics.REGISTRY.counter("serve.cache_hits").inc(hits)
                out = [None if hit is None else replace(hit, cached=True) for hit in out]
            bundle = [
                _Request(frames[k], species, cell, fps[k], group_key, timeout_s)
                for k in miss
            ]
            if bundle:
                self._queue.append(bundle)
                _metrics.REGISTRY.gauge("serve.queue_depth").set(self._depth())
                self._cond.notify()
        if bundle:
            for k, pred in zip(miss, self._await(bundle)):
                out[k] = pred
        return out

    def _depth(self) -> int:
        """Queued frames (caller holds ``_cond``)."""
        return sum(map(len, self._queue))

    def _await(self, bundle: list[_Request]) -> list[Prediction]:
        for req in bundle:
            req.event.wait(timeout=max(req.deadline - time.monotonic(), 0.0))
        missed = [req for req in bundle if not req.event.is_set()]
        if missed:
            with self._cond:
                # the batcher may have fulfilled some between expiry and
                # here; the rest leave the queue (or _respond skips them)
                missed = [req for req in missed if not req.event.is_set()]
                for req in missed:
                    req.cancelled = True
                self._queue = [b for b in ([r for r in b if not r.cancelled]
                                           for b in self._queue) if b]
                self._counts["timeouts"] += len(missed)
        if missed:
            _metrics.REGISTRY.counter("serve.timeouts").inc(len(missed))
            self._traffic.mark(len(missed), errors=len(missed))
            raise ServeTimeout(f"request expired after {bundle[0].timeout_s}s")
        for req in bundle:
            if req.error is not None:
                raise req.error
        return [req.prediction for req in bundle]

    # ------------------------------------------------------------------
    # hot swap
    # ------------------------------------------------------------------
    def swap(self, state) -> int:
        """Load new weights; returns the new monotonic model version.

        In-flight micro-batches drain under the version they were
        dispatched with; the next batch (and every later response) is
        computed under the new one.  The prediction cache is purged --
        its entries are keyed by version, so the purge frees capacity
        rather than preventing staleness.
        """
        with self._swap_lock:
            version = self._session.swap(state)
            self._pending_state.set(state)
            with self._cond:
                self._prediction_cache.clear()
        _metrics.REGISTRY.counter("serve.swaps").inc()
        return version

    def restore_version(self, version: int) -> int:
        """Fast-forward the wrapped session's version (checkpoint resume).

        Worker replicas already carry the restored weights (they are
        deep-copied from the session at :meth:`start`), so the version
        counter moves without a broadcast.
        """
        with self._swap_lock:
            result = self._session.restore_version(version)
            if self._executor is not None:
                self._worker_version.set(result)
        return result

    # ------------------------------------------------------------------
    # batcher
    # ------------------------------------------------------------------
    def _serve_loop(self) -> None:
        tracer = None
        if self._ambient_tracer is not None:
            tracer = Tracer(keep_events=True, profile=self._capture == "profile")
            tracer.__enter__()
        try:
            while True:
                group = self._collect()
                if group is None:
                    break
                self._process(group)
        finally:
            if tracer is not None:
                tracer.__exit__(None, None, None)
                with self._cond:
                    self._loop_tracer = tracer
            self._fail_remaining()
            self.heartbeats.done("serve-batcher")

    def _collect(self) -> Optional[list[_Request]]:
        """Block until work is queued, then flush it at once: whole bundles
        compatible with the head, in FIFO order, until one does not fit in
        ``max_batch`` (``None`` when stopped and done)."""
        cfg = self.config
        with self._cond:
            while True:
                # idle waiting is healthy: the beat lands every wakeup
                # (<=50ms), so only a wedge *inside* batch work stalls it
                self.heartbeats.beat("serve-batcher")
                if self._stopping and not self._drain:
                    return None  # _fail_remaining rejects whatever is queued
                if self._queue:
                    break
                if self._stopping:
                    return None
                self._cond.wait(timeout=0.05)
            head, *rest = self._queue
            group, kept = head[: cfg.max_batch], [head[cfg.max_batch:]]
            room = cfg.max_batch - len(group)
            for bundle in rest:
                if bundle[0].group_key == head[0].group_key:
                    if len(bundle) <= room:
                        group += bundle
                        room -= len(bundle)
                        continue
                    room = 0
                kept.append(bundle)
            self._queue = [b for b in kept if b]
            _metrics.REGISTRY.gauge("serve.queue_depth").set(self._depth())
            return group

    def _sync_workers_locked(self) -> None:
        """Broadcast the pending swap payload (caller holds _swap_lock);
        a crash here leaves the pool degraded, so the batch about to be
        dispatched falls back and :meth:`_process` heals afterwards."""
        version = self._session.model_version
        ex = self._executor
        if ex is None or self._worker_version.get() == version:
            return
        state = self._pending_state.get()
        ex.run_resilient(
            [("set_weights", (state,))] * ex.world_size, lambda calls, capture: []
        )
        self._worker_version.set(version)

    def _process(self, group: list[_Request]) -> None:
        with self._swap_lock:
            version = self._session.model_version
            self._sync_workers_locked()
        with _span("serve.batch", size=len(group), version=version):
            batch = self._assemble(group)

            def local(calls, capture):
                # the serial path (crash fallback, or a session with no
                # extractable models): compute under the swap lock so
                # the stamped version always matches the weights used
                nonlocal version
                with self._swap_lock, _span("serve.fallback"):
                    version = self._session.model_version
                    return [run_task(self._local, m, a, capture) for m, a in calls]

            ex = self._executor
            if ex is None:
                results = local([("predict_task", (batch,))], False)
            else:
                results = ex.run_resilient(
                    self._shard_calls(batch, ex.world_size),
                    local,
                    capture=self._capture,
                )
            out = self._stitch(results, "local" if ex is None else ex.name)
            if ex is not None and ex.degraded:
                self._counts["fallbacks"] += 1
                _metrics.REGISTRY.counter("serve.fallbacks").inc()
                with self._swap_lock:
                    state = self._pending_state.get()
                    try:
                        ex.heal(
                            self._spec,
                            None if state is None else [state] * ex.world_size,
                        )
                        self._worker_version.set(self._session.model_version)
                    except Exception:
                        # pool unrecoverable: all further batches
                        # take the serial path
                        ex.close()
                        self._executor = None
        self._respond(group, out, version)

    def _assemble(self, group: list[_Request]) -> DescriptorBatch:
        """Micro-batch -> one DescriptorBatch, through the neighbor cache:
        the frames the cache misses are built in one kernel call."""
        c, cell = self.cfg, group[0].cell
        frames = np.stack([r.positions for r in group])
        tables = [None] * len(group)
        if self.config.cache_neighbors:
            with self._cond:
                tables = [self._neighbor_cache.get(r.fingerprint) for r in group]
        miss = [k for k, table in enumerate(tables) if table is None]
        if miss:
            with _span("serve.neighbors", misses=len(miss)):
                built = batch_neighbor_tables(frames[miss], cell, c.rcut, c.nmax)
            for k, t in enumerate(miss):
                tables[t] = built.frame(k)
            if self.config.cache_neighbors:
                with self._cond:
                    for t in miss:
                        self._neighbor_cache.put(group[t].fingerprint, tables[t])
        return frames_to_batch(frames, group[0].species, cell, c, tables=tables)

    @staticmethod
    def _shard_calls(batch: DescriptorBatch, world: int) -> list:
        """One ``predict_task`` per rank over a near-even frame split."""
        base, rem = divmod(batch.batch_size, world)
        calls, lo = [], 0
        for rank in range(world):
            size = base + (1 if rank < rem else 0)
            shard = batch.frame_slice(lo, lo + size) if size else None
            calls.append(("predict_task", (shard,)))
            lo += size
        return calls

    def _stitch(self, results: list, executor: str) -> dict:
        """Merge the round's telemetry (batcher thread: the loop tracer
        is current) and concatenate the per-rank outputs in rank order
        (determinism)."""
        merge_worker_telemetry(results, current_tracer(), executor=executor)
        for res in results:
            tel = res.telemetry
            _metrics.REGISTRY.histogram(
                "serve.worker_task_s", rank=tel.rank
            ).observe(tel.wall_s)
            self._worker_window.observe(tel.wall_s)
        outs = [res.payload for res in results if res.payload is not None]
        keys = [k for k, v in outs[0].items() if v is not None]
        return {k: np.concatenate([o[k] for o in outs]) for k in keys}

    def _respond(self, group: list[_Request], out: dict, version: int) -> None:
        e_std = out.get("energy_std")
        dev = out.get("max_force_dev")
        now = time.perf_counter()
        answered = []
        with self._cond:
            self._counts["batches"] += 1
            for t, req in enumerate(group):
                pred = Prediction(
                    energy=float(out["energy"][t]),
                    forces=out["forces"][t],
                    model_version=version,
                    energy_std=None if e_std is None else float(e_std[t]),
                    max_force_dev=None if dev is None else float(dev[t]),
                )
                if self.config.cache_predictions:
                    self._prediction_cache.put(
                        (req.fingerprint, req.group_key[1], version), pred
                    )
                if not req.cancelled:
                    req.prediction = pred
                    req.event.set()
                    answered.append(req)
            self._counts["responses"] += len(answered)
        _metrics.REGISTRY.counter("serve.batches").inc()
        self._occupancy.observe(len(group))
        _metrics.REGISTRY.histogram("serve.batch_occupancy").observe(len(group))
        for req in answered:
            latency = now - req.t_submit
            self._latency.observe(latency)
            self._latency_window.observe(latency)
            self._traffic.mark()
            _metrics.REGISTRY.histogram("serve.latency_s").observe(latency)

    def _fail_remaining(self) -> None:
        with self._cond:
            for bundle in self._queue:
                for req in bundle:
                    req.error = ServiceStopped("service stopped before dispatch")
                    req.event.set()
            self._queue = []

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def _merge_loop_telemetry(self) -> None:
        """Fold the batcher thread's locally captured spans/ops into the
        tracer that was ambient when the service started (tracer stacks
        are thread-local, so this is the only way they ever meet)."""
        with self._cond:
            loop, ambient = self._loop_tracer, self._ambient_tracer
            self._loop_tracer = None
        if loop is None or ambient is None:
            return
        ambient.adopt(loop, thread="serve-batcher")

    def stats(self) -> dict:
        """JSON-ready service-life statistics (per-instance)."""
        lat = self._latency.summary()
        lat["p99"] = self._latency.percentile(99)
        with self._cond:
            depth = self._depth()
        return {
            **dict(self._counts),
            "model_version": self._session.model_version,
            "queue_depth": depth,
            "latency_s": lat,
            "batch_occupancy": self._occupancy.summary(),
            "neighbor_cache": self._neighbor_cache.stats(),
            "prediction_cache": self._prediction_cache.stats(),
        }

    def health(self) -> dict:
        """Live health sample for the runtime monitor.

        Unlike :meth:`stats` (service-lifetime aggregates), everything
        here is *windowed* over the last ``config.window_s`` seconds --
        the shape the stock serve SLO rules
        (:func:`repro.telemetry.monitor.default_serve_rules`) evaluate.
        """
        with self._cond:
            depth = self._depth()
        capacity = max(self.config.max_queue, 1)
        return {
            "started": self._started,
            "model_version": self._session.model_version,
            "latency": self._latency_window.summary(),
            "worker_task": self._worker_window.summary(),
            "traffic": self._traffic.summary(),
            "queue_depth": depth,
            "queue_capacity": capacity,
            "queue_saturation": depth / capacity,
            "heartbeats": self.heartbeats.ages(),
        }

    def inject_fault(self, rank: int, fault) -> None:
        """Install a :class:`~repro.runtime.FaultInjector` on one rank's
        worker (robustness / watchdog tests; mirrors the data-parallel
        trainer's hook).  A ``stall_s`` fault with ``raises=False``
        wedges the rank -- and therefore the batcher -- without tripping
        the crash/heal path, which is exactly the silent-hang mode the
        heartbeat SLO exists to catch."""
        if self._executor is None:
            raise RuntimeError("service has no worker pool (start it first)")
        self._executor.inject_fault(rank, fault)
