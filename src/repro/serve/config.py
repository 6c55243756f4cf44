"""Configuration of the batched inference service."""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Optional


@dataclass
class ServeConfig:
    """Knobs of :class:`repro.serve.InferenceService`.

    The batcher is work-conserving: whenever it is free it flushes what
    is queued, up to ``max_batch`` frames, so batches grow with load and
    no request waits for batch-mates.
    """

    #: most frames per forward pass
    max_batch: int = 8
    #: retired (the batcher waits on no deadline): any value >= 0 is
    #: accepted and ignored, and nothing is stored; ROADMAP 1(d) stops
    #: perfbench passing it, after which the keyword goes
    max_delay_s: InitVar[float] = 0.0
    #: bounded request queue -- submissions beyond this are rejected with
    #: :class:`repro.serve.ServeOverloaded` (backpressure, never OOM)
    max_queue: int = 64
    #: per-request wall-clock budget (queue wait + compute); expiry
    #: surfaces as :class:`repro.serve.ServeTimeout` at the caller
    request_timeout_s: float = 30.0
    #: executor backend for the worker pool (``serial`` / ``thread`` /
    #: ``process`` / an :class:`~repro.parallel.executor.Executor`
    #: instance); ``None`` consults ``$REPRO_EXECUTOR``
    executor: "Optional[str]" = None
    #: worker ranks the micro-batch is sharded across
    world_size: int = 1
    #: memoize neighbor tables by position/cell/cutoff fingerprint
    cache_neighbors: bool = True
    #: memoize whole predictions by (fingerprint, model_version)
    cache_predictions: bool = True
    #: LRU capacity of each cache (entries)
    cache_capacity: int = 256
    #: extent of the sliding latency/error windows the health monitor
    #: reads (``InferenceService.health()``)
    window_s: float = 30.0
    #: batcher heartbeat deadline -- a beat older than this marks the
    #: batcher stalled (it wakes at least every 50 ms when healthy, so
    #: the default only fires on a genuinely wedged batch)
    heartbeat_deadline_s: float = 5.0

    def __post_init__(self, max_delay_s: float):
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_delay_s < 0.0:
            raise ValueError("max_delay_s must be >= 0")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.request_timeout_s <= 0.0:
            raise ValueError("request_timeout_s must be > 0")
        if self.world_size < 1:
            raise ValueError("world_size must be >= 1")
        if self.cache_capacity < 1:
            raise ValueError("cache_capacity must be >= 1")
        if self.window_s <= 0.0:
            raise ValueError("window_s must be > 0")
        if self.heartbeat_deadline_s <= 0.0:
            raise ValueError("heartbeat_deadline_s must be > 0")
