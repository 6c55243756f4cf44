"""Minibatch iteration over frame sources, with optional prefetch.

The loader yields frame-index arrays; the model's input pipeline turns
them into batched descriptor inputs.  Shuffling is seeded per epoch so
training runs are exactly reproducible -- convergence-epoch comparisons
between optimizers (Tables 1 and 4) depend on that determinism.

Two loaders share one ordering kernel (:func:`~repro.data.source.
windowed_order`), so they visit frames identically for equal parameters:

* :class:`BatchLoader` -- builds each batch synchronously in the
  consumer's thread.  The historical path, now speaking the
  :class:`~repro.data.source.FrameSource` protocol instead of a concrete
  in-memory dataset.
* :class:`StreamingLoader` -- a producer thread runs batch construction
  on :class:`PrefetchWorker` ranks of the rank runtime
  (:mod:`repro.runtime`, :mod:`repro.parallel.executor`), keeping a
  bounded queue of ready batches ahead of the consumer:
  descriptor-input assembly (frame reads, neighbor tables, index
  flattening) overlaps the optimizer's Kalman algebra.  Hit/stall
  counters and ``data.prefetch`` worker spans make the overlap
  observable.  A crashed prefetch rank costs nothing but time: the
  runtime's fallback builds the batch in the producer thread and the
  rank is respawned.

Construct via :func:`make_loader` (mirrors ``make_optimizer``): it picks
the class from the options and accepts anything
:func:`~repro.data.source.open_source` understands.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Iterator, Optional

import numpy as np

from ..runtime import capture_mode, merge_worker_telemetry, run_task
from ..telemetry import metrics as _metrics
from ..telemetry.trace import current_tracer, span as _span
from .source import FrameSource, open_source, windowed_order

__all__ = [
    "BatchLoader",
    "StreamingLoader",
    "make_loader",
    "PrefetchWorker",
    "PrefetchSpec",
]


class BatchLoader:
    """Iterate a frame source in shuffled minibatches of frame indices.

    ``window`` bounds shuffle locality (see :func:`~repro.data.source.
    windowed_order`): ``None`` reproduces the historical global
    permutation bit-exactly; a finite window keeps any moment of
    iteration inside one window's worth of frames, which is what lets an
    out-of-core store serve an epoch from a small LRU of mapped shards.
    """

    def __init__(
        self,
        source: FrameSource,
        batch_size: int = 1,
        shuffle: bool = True,
        drop_last: bool = True,
        seed: int = 0,
        window: Optional[int] = None,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if window is not None and window < 1:
            raise ValueError("window must be >= 1 (or None)")
        self.source = source
        self.batch_size = int(batch_size)
        self.shuffle = shuffle
        self.drop_last = drop_last
        self.seed = seed
        self.window = window
        self._epoch = 0

    def __len__(self) -> int:
        n = self.source.n_frames
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def epoch(self, epoch_index: int | None = None) -> Iterator[np.ndarray]:
        """Yield minibatch index arrays for one epoch.

        ``epoch_index`` selects the deterministic shuffle; ``None`` reads
        the loader's epoch cursor without advancing it.  This method
        never mutates loader state, so ``list(loader.epoch(i))`` is
        reproducible for any ``i`` at any time.
        """
        if epoch_index is None:
            epoch_index = self._epoch
        n = self.source.n_frames
        if self.shuffle:
            order = windowed_order(n, self.window, self.seed, epoch_index)
        else:
            order = np.arange(n)
        stop = (n // self.batch_size) * self.batch_size if self.drop_last else n
        for lo in range(0, stop, self.batch_size):
            yield order[lo : lo + self.batch_size]

    def __iter__(self) -> Iterator[np.ndarray]:
        """Iterate the epoch at the cursor, then advance the cursor.

        The cursor moves only when the iterator is exhausted -- merely
        calling ``iter(loader)`` (or abandoning it part-way) leaves the
        epoch sequence unchanged, so consecutive full passes replay
        ``epoch(0)``, ``epoch(1)``, ... exactly.
        """
        e = self._epoch
        yield from self.epoch(e)
        self._epoch = e + 1

    # ------------------------------------------------------------------
    def iter_batches(self, cfg, epoch_index: int | None = None):
        """Yield ``(indices, DescriptorBatch)`` pairs for one epoch.

        The synchronous path: each batch is built in the caller's thread
        right before it is yielded.  :class:`StreamingLoader` overrides
        this with the prefetching producer; both yield identical pairs
        for equal loader parameters (same ordering kernel, same
        ``make_batch``), which is the bit-identity contract the
        determinism audit checks.
        """
        from ..model.environment import make_batch  # deferred: model imports data

        for idx in self.epoch(epoch_index):
            yield idx, make_batch(self.source, idx, cfg)

    def warm_up(self) -> None:
        """Pre-start worker resources (no-op for the synchronous path)."""

    def close(self) -> None:
        """Release loader resources (no-op for the synchronous path)."""


class PrefetchWorker:
    """Batch-construction compute for the streaming data loader.

    The descriptor-input half of a training step -- fetch frames, build
    neighbor tables, assemble the :class:`DescriptorBatch` -- is a pure
    function of (frame source, index array, descriptor config), exactly
    the shape the rank runtime wants.  :class:`StreamingLoader` runs
    these workers on an executor so batch construction overlaps the
    optimizer's Kalman algebra (thread backend: the table/gather kernels
    are numpy and BLAS releases the GIL; process backend: a picklable
    store *handle* travels, never frame data).
    """

    #: rank-runtime declarations (see :func:`repro.runtime.run_task`)
    tasks = frozenset({"make_batch", "noop"})
    span = "data.prefetch"
    compute_tasks = {"make_batch": {}}
    counter = "data.prefetch_tasks"

    def __init__(self, source, cfg, rank: int = 0):
        self.source = source
        self.cfg = cfg
        self.rank = int(rank)

    def make_batch(self, indices: np.ndarray):
        from ..model.environment import make_batch  # deferred: model imports data

        return make_batch(self.source, indices, self.cfg)

    def noop(self) -> None:
        """Padding task for partial final groups (world_size alignment)."""


@dataclass
class PrefetchSpec:
    """Picklable recipe for building prefetch ranks.

    ``source`` must be picklable for the process backend -- an in-memory
    :class:`~repro.data.dataset.Dataset` ships its arrays once at start;
    a :class:`~repro.data.framestore.ShardedFrameStore` ships only its
    path handle and re-opens (mmap) inside the worker.
    """

    source: Any
    cfg: Any

    def build(self, rank: int = 0) -> PrefetchWorker:
        return PrefetchWorker(self.source, self.cfg, rank=rank)


def _put(out: "queue.Queue", item, stop: threading.Event) -> bool:
    """Blocking put that gives up once the consumer has stopped."""
    while not stop.is_set():
        try:
            out.put(item, timeout=0.1)
            return True
        except queue.Full:
            pass
    return False


class StreamingLoader(BatchLoader):
    """Prefetching loader: batch construction on rank workers, ahead of
    the consumer.

    A producer thread dispatches ``make_batch`` tasks in groups of
    ``workers`` through an executor (:class:`PrefetchWorker` ranks;
    serial / thread / process backends all work) and feeds a queue
    bounded at ``depth`` groups -- bounded memory, no matter how far the
    optimizer falls behind.  The consumer's
    :meth:`iter_batches` drains the queue in submission order, so the
    batch sequence is exactly the synchronous loader's.

    Observability: ``data.prefetch.hits`` / ``data.prefetch.stalls``
    counters (was a batch ready the moment the optimizer asked?), a
    ``data.prefetch.wait_s`` histogram of consumer stall time, worker
    ``data.prefetch`` spans merged into an ambient tracer, and
    :attr:`stats` totals for the benchmark gate.
    """

    def __init__(
        self,
        source: FrameSource,
        batch_size: int = 1,
        cfg=None,
        shuffle: bool = True,
        drop_last: bool = True,
        seed: int = 0,
        window: Optional[int] = None,
        executor: "str | None" = None,
        workers: int = 2,
        depth: int = 2,
    ):
        super().__init__(source, batch_size, shuffle, drop_last, seed, window)
        if cfg is None:
            raise TypeError(
                "StreamingLoader needs the descriptor config (cfg=) to "
                "build batches on its workers"
            )
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.cfg = cfg
        self.executor_kind = executor
        self.workers = int(workers)
        self.depth = int(depth)
        self._spec = PrefetchSpec(source=source, cfg=cfg)
        self._executor = None
        #: lifetime totals, for the gated benchmark and tests
        self.stats = {"batches": 0, "hits": 0, "stalls": 0, "wait_s": 0.0}

    # ------------------------------------------------------------------
    def _ensure_executor(self):
        if self._executor is None:
            # deferred: parallel imports optim imports model imports data
            from ..parallel.executor import make_executor

            ex = make_executor(self.executor_kind, self.workers)
            ex.start(self._spec)
            self._executor = ex
        return self._executor

    def _fallback(self, calls, capture) -> list:
        """The rank runtime's crash fallback: build the group right here
        in the producer thread, on the loader's own source."""
        local = self._spec.build()
        return [run_task(local, method, args, capture) for method, args in calls]

    def _produce(
        self,
        batches: list[np.ndarray],
        out: "queue.Queue",
        stop: threading.Event,
        capture: "bool | str",
    ) -> None:
        """Producer loop: submit index groups, enqueue ``(indices,
        result)`` pairs in order -- or the exception that ended it."""
        ws = self.workers
        ex = self._executor
        try:
            for lo in range(0, len(batches), ws):
                if stop.is_set():
                    return
                group = batches[lo : lo + ws]
                calls = [("make_batch", (idx,)) for idx in group]
                calls += [("noop", ())] * (ws - len(group))
                results = ex.run_resilient(calls, self._fallback, capture=capture)
                if ex.degraded:
                    ex.heal(self._spec, None)
                for idx, res in zip(group, results):
                    if not _put(out, (idx, res), stop):
                        return
        except BaseException as exc:  # surfaced in the consumer
            _put(out, exc, stop)

    # ------------------------------------------------------------------
    def warm_up(self) -> None:
        """Start the worker executor now; idempotent.  Without it the
        first :meth:`iter_batches` pays the worker spawn cost, which
        throughput measurements usually want outside the timed region."""
        self._ensure_executor()

    def iter_batches(self, cfg=None, epoch_index: int | None = None):
        """Yield ``(indices, DescriptorBatch)`` with prefetch overlap.

        ``cfg`` must match the loader's config when given (the workers
        were built with :attr:`cfg`).  Abandoning the generator part-way
        (early stop, exceptions) stops the producer and leaves the
        executor reusable for the next epoch.
        """
        if cfg is not None and cfg != self.cfg:
            raise ValueError("iter_batches cfg differs from the loader's cfg")
        executor = self._ensure_executor().name
        batches = list(self.epoch(epoch_index))
        tracer = current_tracer()
        hits = _metrics.REGISTRY.counter("data.prefetch.hits")
        stalls = _metrics.REGISTRY.counter("data.prefetch.stalls")
        wait_h = _metrics.REGISTRY.histogram("data.prefetch.wait_s")
        out: "queue.Queue" = queue.Queue(maxsize=self.depth * self.workers)
        stop = threading.Event()
        producer = threading.Thread(
            target=self._produce,
            args=(batches, out, stop, capture_mode(tracer)),
            name="data-prefetch",
            daemon=True,
        )
        producer.start()
        served = 0
        try:
            while served < len(batches):
                if out.empty():
                    self.stats["stalls"] += 1
                    stalls.inc()
                    t0 = time.perf_counter()
                    with _span("data.prefetch.wait", served=served):
                        item = out.get()
                    waited = time.perf_counter() - t0
                    self.stats["wait_s"] += waited
                    wait_h.observe(waited)
                else:
                    self.stats["hits"] += 1
                    hits.inc()
                    item = out.get()
                if isinstance(item, BaseException):
                    raise item
                idx, res = item
                merge_worker_telemetry([res], tracer, executor=executor)
                served += 1
                self.stats["batches"] += 1
                yield idx, res.payload
        finally:
            stop.set()
            while True:  # unblock a producer stuck on a full queue
                try:
                    out.get_nowait()
                except queue.Empty:
                    break
            producer.join(timeout=5.0)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the worker executor down (idempotent; reopens on use)."""
        if self._executor is not None:
            self._executor.close()
            self._executor = None

    def __enter__(self) -> "StreamingLoader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


def make_loader(
    source,
    batch_size: int,
    *,
    cfg=None,
    shuffle: bool = True,
    drop_last: bool = True,
    seed: int = 0,
    window: Optional[int] = None,
    prefetch: bool = False,
    executor: "str | None" = None,
    workers: int = 2,
    depth: int = 2,
) -> BatchLoader:
    """Build the right loader for a source (mirrors ``make_optimizer``).

    ``source`` is anything :func:`~repro.data.open_source` accepts -- a
    ``Dataset``, a ``ShardedFrameStore``, an ``.npz`` path, or a store
    directory.  ``prefetch=True`` returns a :class:`StreamingLoader`
    (requires ``cfg``); otherwise a plain :class:`BatchLoader`.  Both
    yield bit-identical batch sequences for equal parameters.
    """
    source = open_source(source)
    if prefetch:
        return StreamingLoader(
            source,
            batch_size,
            cfg=cfg,
            shuffle=shuffle,
            drop_last=drop_last,
            seed=seed,
            window=window,
            executor=executor,
            workers=workers,
            depth=depth,
        )
    return BatchLoader(
        source,
        batch_size,
        shuffle=shuffle,
        drop_last=drop_last,
        seed=seed,
        window=window,
    )
