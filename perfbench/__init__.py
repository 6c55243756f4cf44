"""perfbench -- the repository's one committed performance benchmark.

Five fixed workloads, a small set of end-to-end metrics measured with
tracing off, and a traced run that attributes time to each
``src/repro/<module>`` layer from the outside.  ``BENCHMARK.json`` at the
repository root is the contract; ``perfbench/README.md`` is the manual.

Only :mod:`perfbench.adapter` imports ``repro``.
"""
