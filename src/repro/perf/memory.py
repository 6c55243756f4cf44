"""Memory-footprint accounting (the Sec. 5.3 "Memory reduction" analysis).

Reproduces the paper's arithmetic for the full-size network:

* P block shapes from the gather-and-split strategy at blocksize 10240;
* the resident footprint of P (paper: 1755 MB at their parameter count);
* the peak under the framework-style ("naive") P update, which
  materializes an extra N_b x N_b outer product + subtraction temporary
  for the largest block (paper: ~3405 MB theoretical, 3380 MB measured);
* the peak under the fused kernel, which applies the downdates in place
  (deferred, one rank-k pass per FLUSH_EVERY updates) and keeps only
  O(N x FLUSH_EVERY) beside P (paper: 1805 MB, i.e. P + weights + small
  intermediates, bounded by 2x the largest block).

``measured_update_peak`` backs the theory with a tracemalloc measurement
of the two kernels on a real (optionally scaled) block set.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass

import numpy as np

from ..optim.blocks import Block, split_blocks
from ..optim.kalman import FLUSH_EVERY, KalmanConfig, KalmanState
from ..telemetry import metrics as _metrics
from ..telemetry.trace import span as _span
from .presets import DenseKalmanState

MB = 1024 * 1024


def process_rss_bytes() -> int:
    """Resident set size of this process, in bytes.

    Reads ``VmRSS`` from ``/proc/self/status`` (Linux); falls back to
    ``resource.getrusage`` -- whose ``ru_maxrss`` is the *peak*, not the
    current residency -- on platforms without procfs.  Used by the
    out-of-core streaming benchmark to certify that sweeping a
    larger-than-RAM-bound corpus keeps residency flat.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


@dataclass
class MemoryReport:
    """Footprint breakdown for one network/blocksize configuration."""

    num_params: int
    blocksize: int
    block_shapes: list[int]
    p_resident_mb: float
    weights_mb: float
    naive_peak_mb: float
    fused_peak_mb: float

    def rows(self) -> list[tuple[str, float]]:
        return [
            ("P resident", self.p_resident_mb),
            ("weights + gradients", self.weights_mb),
            ("peak, framework P update", self.naive_peak_mb),
            ("peak, fused P update", self.fused_peak_mb),
        ]


def footprint_report(
    layer_sizes: list[tuple[int, int]], blocksize: int = 10240, dtype_size: int = 8
) -> MemoryReport:
    """Analytic footprint for a network given its layer sizes."""
    blocks = split_blocks(layer_sizes, blocksize)
    shapes = [b.size for b in blocks]
    num_params = sum(shapes)
    p_resident = sum(s * s for s in shapes) * dtype_size / MB
    weights = 2 * num_params * dtype_size / MB  # weights + one flat gradient
    largest = max(shapes)
    # naive: P + (K K^T outer) + (P - ...) subtraction result live together
    naive_extra = 2 * largest * largest * dtype_size / MB
    # fused: the triangular downdate runs in place (a rank-k flush every
    # FLUSH_EVERY updates); beside O(N_b) vectors (P g, K) there are only
    # the pending pairs of every block and the flush's one scaled copy of
    # the largest block's -- O(N * FLUSH_EVERY), confirmed by
    # measured_update_peak
    fused_extra = (
        4 * largest + FLUSH_EVERY * (num_params + largest)
    ) * dtype_size / MB
    return MemoryReport(
        num_params=num_params,
        blocksize=blocksize,
        block_shapes=shapes,
        p_resident_mb=p_resident,
        weights_mb=weights,
        naive_peak_mb=p_resident + weights + naive_extra,
        fused_peak_mb=p_resident + weights + fused_extra,
    )


def paper_layer_sizes() -> list[tuple[int, int]]:
    """Layer sizes of the paper's network (embedding [25,25,25], M<=16,
    fitting [400,50,50,50,1]); total parameter count ~26.5k."""
    emb = [(0, 1 * 25 + 25), (1, 25 * 25 + 25), (2, 25 * 25 + 25)]
    fit = [(3, 400 * 50 + 50), (4, 50 * 50 + 50), (5, 50 * 50 + 50), (6, 50 + 1)]
    return emb + fit


def measured_update_peak(
    layer_sizes: list[tuple[int, int]], blocksize: int, fused: bool,
    n_updates: int | None = None,
) -> float:
    """tracemalloc peak (MB) of running Kalman updates with either kernel.

    Only allocations made *during* the updates are counted (the resident P
    is allocated before tracing starts), matching how the paper separates
    resident footprint from update transients.  ``n_updates`` defaults to
    3 for the naive kernel and to a whole flush window for the fused one,
    so its rank-k flush is inside the measurement.
    """
    if n_updates is None:
        n_updates = FLUSH_EVERY if fused else 3
    num = sum(s for _, s in layer_sizes)
    cfg = KalmanConfig(blocksize=blocksize)
    state = (KalmanState if fused else DenseKalmanState)(num, layer_sizes, cfg)
    rng = np.random.default_rng(0)
    g = rng.normal(size=num) * 0.1
    state.update(g, 0.1, 1.0)  # warm any lazy allocations
    with _span("perf.memory_peak", fused=fused, blocksize=blocksize):
        tracemalloc.start()
        for _ in range(n_updates):
            state.update(rng.normal(size=num) * 0.1, 0.1, 1.0)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    peak_mb = peak / MB
    _metrics.REGISTRY.gauge("perf.update_peak_mb", fused=fused).set(peak_mb)
    return peak_mb
