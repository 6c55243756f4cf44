"""Sliding-window aggregation over the streaming instruments.

The base :class:`~repro.telemetry.metrics.Histogram` accumulates over a
whole run -- exactly right for a post-hoc manifest, useless for "is p99
breaching *right now*".  The two instruments here answer the live
question by bucketing time into a ring:

:class:`SlidingHistogram`
    A ring of ``buckets`` plain histograms, each covering
    ``window_s / buckets`` seconds.  ``observe`` lands in the current
    bucket; ``window()`` merges every still-live bucket into one
    :class:`Histogram` (via :meth:`Histogram.merge`), so p50/p99 over
    the last ``window_s`` seconds cost one small merge and nothing is
    ever rescanned.

:class:`WindowedRate`
    Bucketed event/error counts over the same ring, plus an
    exponentially-decayed rate estimate (EWMA).  ``rate()`` is events/s
    over the window, ``error_rate()`` the windowed error fraction --
    the two numbers the error-rate SLO evaluates.

Both take an injectable monotonic ``clock`` (tests drive a fake one; the
default is ``time.monotonic`` -- never wall-clock, see the project lint).
All methods are thread-safe: producers observe from request threads
while the health monitor reads from its sampler thread.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable, Optional

from ...analysis.concurrency import TrackedLock
from ..metrics import Histogram

__all__ = ["SlidingHistogram", "WindowedRate"]


class SlidingHistogram:
    """Time-bucketed ring of :class:`Histogram`\\ s over the last
    ``window_s`` seconds.

    Parameters
    ----------
    window_s:
        Extent of the sliding window.
    buckets:
        Ring resolution; expired observations age out one bucket
        (``window_s / buckets`` seconds) at a time.
    max_samples:
        Percentile reservoir cap *per bucket*.
    clock:
        Monotonic time source (injectable for deterministic tests).
    """

    def __init__(
        self,
        window_s: float = 30.0,
        buckets: int = 10,
        max_samples: int = 512,
        clock: Callable[[], float] = time.monotonic,
    ):
        if window_s <= 0.0:
            raise ValueError("window_s must be > 0")
        if buckets < 1:
            raise ValueError("buckets must be >= 1")
        self.window_s = float(window_s)
        self.buckets = int(buckets)
        self.max_samples = int(max_samples)
        self._bucket_s = self.window_s / self.buckets
        self._clock = clock
        self._lock = TrackedLock("monitor.sliding_histogram")
        #: ring slots: [epoch occupying the slot, Histogram]
        self._ring: list[list] = [
            [-1, Histogram(self.max_samples)] for _ in range(self.buckets)
        ]

    # ------------------------------------------------------------------
    def _bucket(self, now: float) -> Histogram:
        """Current-epoch bucket, recycling the slot it wraps onto."""
        epoch = int(now / self._bucket_s)
        slot = self._ring[epoch % self.buckets]
        if slot[0] != epoch:
            slot[0] = epoch
            slot[1] = Histogram(self.max_samples)
        return slot[1]

    def observe(self, value: float, now: Optional[float] = None) -> None:
        now = self._clock() if now is None else now
        with self._lock:
            self._bucket(now).observe(value)

    # ------------------------------------------------------------------
    def window(self, now: Optional[float] = None) -> Histogram:
        """Merged :class:`Histogram` over every still-live bucket."""
        now = self._clock() if now is None else now
        epoch = int(now / self._bucket_s)
        lo = epoch - self.buckets + 1
        merged = Histogram(self.max_samples * self.buckets)
        with self._lock:
            for stamp, hist in self._ring:
                if lo <= stamp <= epoch:
                    merged.merge(hist)
        return merged

    def summary(self, now: Optional[float] = None) -> dict:
        """``Histogram.summary()`` of the live window plus ``window_s``."""
        out = self.window(now).summary()
        out["window_s"] = self.window_s
        return out


class WindowedRate:
    """Event/error throughput over a sliding window, plus an EWMA rate.

    ``mark(n, errors=e)`` records ``n`` outcomes of which ``e`` failed.
    ``rate()`` is events/s over the live window (bucketed, exact);
    ``ewma_rate()`` is an exponentially-decayed estimate with half-life
    ``halflife_s`` that reacts faster to bursts; ``error_rate()`` is the
    windowed failure fraction in [0, 1].
    """

    def __init__(
        self,
        window_s: float = 30.0,
        buckets: int = 10,
        halflife_s: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if window_s <= 0.0:
            raise ValueError("window_s must be > 0")
        if buckets < 1:
            raise ValueError("buckets must be >= 1")
        self.window_s = float(window_s)
        self.buckets = int(buckets)
        self.halflife_s = float(halflife_s or self.window_s / 4.0)
        self._tau = self.halflife_s / math.log(2.0)
        self._bucket_s = self.window_s / self.buckets
        self._clock = clock
        self._lock = TrackedLock("monitor.windowed_rate")
        #: ring slots: [epoch, events, errors]
        self._ring: list[list] = [[-1, 0.0, 0.0] for _ in range(self.buckets)]
        #: exponentially-decayed event mass and its last-update stamp
        self._decayed = 0.0
        self._decayed_t: Optional[float] = None
        self._t0: Optional[float] = None

    # ------------------------------------------------------------------
    def mark(
        self, n: float = 1.0, errors: float = 0.0, now: Optional[float] = None
    ) -> None:
        now = self._clock() if now is None else now
        with self._lock:
            if self._t0 is None:
                self._t0 = now
            epoch = int(now / self._bucket_s)
            slot = self._ring[epoch % self.buckets]
            if slot[0] != epoch:
                slot[0] = epoch
                slot[1] = 0.0
                slot[2] = 0.0
            slot[1] += float(n)
            slot[2] += float(errors)
            if self._decayed_t is not None:
                self._decayed *= math.exp(-(now - self._decayed_t) / self._tau)
            self._decayed += float(n)
            self._decayed_t = now

    def _window_counts(self, now: float) -> tuple[float, float]:
        epoch = int(now / self._bucket_s)
        lo = epoch - self.buckets + 1
        events = errors = 0.0
        for stamp, ev, er in self._ring:
            if lo <= stamp <= epoch:
                events += ev
                errors += er
        return events, errors

    # ------------------------------------------------------------------
    def rate(self, now: Optional[float] = None) -> float:
        """Events per second over the live window."""
        now = self._clock() if now is None else now
        with self._lock:
            if self._t0 is None:
                return 0.0
            events, _ = self._window_counts(now)
            covered = min(self.window_s, max(now - self._t0, self._bucket_s))
        return events / covered

    def ewma_rate(self, now: Optional[float] = None) -> float:
        """Exponentially-decayed events/s (half-life ``halflife_s``)."""
        now = self._clock() if now is None else now
        with self._lock:
            if self._decayed_t is None:
                return 0.0
            mass = self._decayed * math.exp(-(now - self._decayed_t) / self._tau)
        return mass / self._tau

    def error_rate(self, now: Optional[float] = None) -> float:
        """Windowed failure fraction (0.0 when the window saw no events)."""
        now = self._clock() if now is None else now
        with self._lock:
            events, errors = self._window_counts(now)
        return errors / events if events > 0 else 0.0

    def summary(self, now: Optional[float] = None) -> dict:
        now = self._clock() if now is None else now
        with self._lock:
            events, errors = self._window_counts(now)
        return {
            "events": events,
            "errors": errors,
            "rate_per_s": self.rate(now),
            "ewma_per_s": self.ewma_rate(now),
            "error_rate": errors / events if events > 0 else 0.0,
            "window_s": self.window_s,
        }
