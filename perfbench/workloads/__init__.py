"""The five workloads.  Each module exposes ``run(bench)`` (end-to-end
metrics, tracing off) and ``trace(bench)`` (per-layer metrics)."""

from __future__ import annotations

import importlib

from ..catalogue import WORKLOAD_NAMES


def load(name: str):
    if name not in WORKLOAD_NAMES:
        raise KeyError(f"unknown workload {name!r}")
    return importlib.import_module(f"{__name__}.{name}")
