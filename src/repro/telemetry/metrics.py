"""Process-wide metric registry: counters, gauges, histograms with labels.

Where spans (``trace.py``) answer "how long did this extent take", metrics
answer "how much of X has happened so far": bytes on the wire,
optimizer updates, evaluations.  Instruments are get-or-created
by ``(name, labels)`` so repeated lookups return the same object::

    from repro.telemetry import metrics
    metrics.REGISTRY.counter("comm.bytes_sent_per_rank").inc(nbytes)
    metrics.REGISTRY.gauge("kalman.lambda").set(lam)
    metrics.REGISTRY.histogram("train.step_seconds").observe(dt)

``REGISTRY.snapshot()`` renders everything to one plain dict (JSON-ready,
what the exporters serialize); ``REGISTRY.reset()`` zeroes it (tests,
per-experiment scoping).

Kernel launches are not a registry metric: count them with
:class:`repro.autograd.KernelCounter`, or read them per phase off the
profiler's op events (``Tracer(profile=True)``).
"""

from __future__ import annotations

import math
from typing import Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "REGISTRY",
    "get_registry",
]


class Counter:
    """Monotonically increasing accumulator."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """Last-value-wins instrument (e.g. the current lambda)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Streaming distribution: count/sum/min/max plus a bounded sample.

    The first ``max_samples`` observations are retained verbatim for
    percentile queries; count/sum/min/max stay exact regardless.  Two
    histograms :meth:`merge` losslessly (within the reservoir cap), which
    is how per-rank worker latency observations fold into the parent
    registry and into the monitor's sliding windows.
    """

    __slots__ = ("count", "total", "min", "max", "samples", "max_samples")

    def __init__(self, max_samples: int = 4096):
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.samples: list[float] = []
        self.max_samples = int(max_samples)

    def observe(self, value: float) -> None:
        v = float(value)
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        if len(self.samples) < self.max_samples:
            self.samples.append(v)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def capped(self) -> bool:
        """True when the percentile reservoir dropped observations (the
        exact count/sum/min/max still cover every one)."""
        return self.count > len(self.samples)

    def percentile(self, q: float) -> float:
        """Approximate q-th percentile (q in [0, 100]) from the sample.

        An empty histogram reports 0.0.  ``q <= 0`` and ``q >= 100``
        return the *exact* min/max (tracked for every observation), so
        the tails stay truthful even when the reservoir is capped;
        intermediate quantiles use nearest-rank over the sample.
        """
        if self.count == 0:
            return 0.0
        if q <= 0.0:
            return self.min
        if q >= 100.0:
            return self.max
        if not self.samples:  # merged from a summary-only source
            return 0.0
        s = sorted(self.samples)
        idx = min(int(round(q / 100.0 * (len(s) - 1))), len(s) - 1)
        return s[idx]

    def merge(self, other: "Histogram | dict") -> "Histogram":
        """Fold another histogram (or its :meth:`as_dict` form, e.g. one
        shipped home by a rank worker) into this one.  Exact aggregates
        (count/sum/min/max) merge losslessly; samples merge up to this
        histogram's reservoir cap, flagging :attr:`capped` if truncated.
        """
        if isinstance(other, Histogram):
            other = other.as_dict()
        count = int(other.get("count", 0))
        if count == 0:
            return self
        self.count += count
        self.total += float(other.get("sum", 0.0))
        self.min = min(self.min, float(other.get("min", math.inf)))
        self.max = max(self.max, float(other.get("max", -math.inf)))
        room = self.max_samples - len(self.samples)
        if room > 0:
            self.samples.extend(
                float(v) for v in list(other.get("samples", ()))[:room]
            )
        return self

    def as_dict(self) -> dict:
        """Picklable/JSON-ready full state (inverse-mergeable): the exact
        aggregates plus the raw sample reservoir."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "samples": list(self.samples),
        }

    def summary(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "capped": self.capped,
        }


def _key(name: str, labels: dict) -> tuple:
    return (name, tuple(sorted(labels.items())))


def _label_str(name: str, labels: tuple) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class MetricRegistry:
    """Keyed store of instruments; one process-wide instance at ``REGISTRY``."""

    def __init__(self):
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}

    # -- get-or-create -------------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        k = _key(name, labels)
        c = self._counters.get(k)
        if c is None:
            c = self._counters[k] = Counter()
        return c

    def gauge(self, name: str, **labels) -> Gauge:
        k = _key(name, labels)
        g = self._gauges.get(k)
        if g is None:
            g = self._gauges[k] = Gauge()
        return g

    def histogram(self, name: str, max_samples: int = 4096, **labels) -> Histogram:
        k = _key(name, labels)
        h = self._histograms.get(k)
        if h is None:
            h = self._histograms[k] = Histogram(max_samples)
        return h

    def merge_counters(self, counts: dict, **labels) -> None:
        """Fold a plain ``{name: amount}`` mapping into this registry's
        counters (the worker-telemetry merge path: rank workers count
        locally and the parent aggregates into one process-wide view)."""
        for name, amount in counts.items():
            self.counter(name, **labels).inc(float(amount))

    # -- introspection -------------------------------------------------
    def snapshot(self) -> dict:
        """All instruments as one JSON-ready dict."""
        return {
            "counters": {
                _label_str(n, lb): c.value for (n, lb), c in self._counters.items()
            },
            "gauges": {
                _label_str(n, lb): g.value for (n, lb), g in self._gauges.items()
            },
            "histograms": {
                _label_str(n, lb): h.summary()
                for (n, lb), h in self._histograms.items()
            },
        }

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


#: the process-wide registry every instrumented subsystem reports to
REGISTRY = MetricRegistry()


def get_registry() -> MetricRegistry:
    return REGISTRY

