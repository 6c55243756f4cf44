"""Sec. 5.3 "Memory reduction" -- P footprint and update-kernel peaks.

Reproduces the paper's arithmetic at the full-size network (analytic) and
backs it with tracemalloc measurements of the two P-update kernels on the
largest block that fits comfortably in this machine's RAM.
"""

from __future__ import annotations

from ..perf.memory import footprint_report, measured_update_peak, paper_layer_sizes
from .common import Report


def run(measure_blocksize: int = 4096) -> Report:
    rep = footprint_report(paper_layer_sizes(), blocksize=10240)
    report = Report(
        experiment="Sec 5.3 memory",
        title="P-matrix footprint and update peaks (paper-size network)",
        headers=["quantity", "this repo (MB)", "paper (MB)"],
        paper_reference="Sec 5.3: blocks {1350,10240,9760,5301}; P 1755; naive peak ~3405 (3380 measured); fused 1805",
    )
    report.add_row("num parameters", rep.num_params, 26651)
    report.add_row("block shapes", str(rep.block_shapes), "{1350,10240,9760,5301}")
    report.add_row("P resident", f"{rep.p_resident_mb:.0f}", 1755)
    report.add_row("peak, framework P update", f"{rep.naive_peak_mb:.0f}", "3405 (theory) / 3380 (meas.)")
    report.add_row("peak, fused P update", f"{rep.fused_peak_mb:.0f}", 1805)

    layers = [(0, measure_blocksize + 280), (1, 600), (2, 25)]
    naive = measured_update_peak(layers, measure_blocksize, fused=False)
    fused = measured_update_peak(layers, measure_blocksize, fused=True)
    report.add_row(
        f"measured transient @N_b={measure_blocksize} (naive)", f"{naive:.1f}", "-"
    )
    report.add_row(
        f"measured transient @N_b={measure_blocksize} (fused)", f"{fused:.2f}", "-"
    )
    report.notes.append(
        "transients measured with tracemalloc (naive: 3 updates; fused: a whole "
        "flush window), resident P excluded; "
        "the fused kernel's in-place triangular downdate removes the N_b^2 temporaries"
    )
    report.notes.append(
        "P rows are the paper's square accounting (N_b^2 per block); the fused "
        "filter maps only each block's upper-triangle pages, about half of it"
    )
    return report
