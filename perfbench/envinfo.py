"""The result envelope: where, on what, and with which pins a set of runs
was measured."""

from __future__ import annotations

import os
import platform
import subprocess
import sys

from . import catalogue
from .harness import THREAD_ENV

LOAD_WARN = 0.5


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=catalogue.ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _versions() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name', '?')} {dep.get('version', '?')}"
    except (KeyError, TypeError):
        pass
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}


def envelope(seed: int, seconds: float) -> dict:
    load1 = os.getloadavg()[0]
    if load1 > LOAD_WARN:
        print(f"[perfbench] warning: 1-min load average {load1:.2f} > {LOAD_WARN};"
              " timings will be noisy", file=sys.stderr)
    return {
        "schema": "perfbench.result/v1",
        "git_sha": _git_sha(),
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **_versions(),
        "thread_env": THREAD_ENV,
        "loadavg_1min_at_start": load1,
    }
