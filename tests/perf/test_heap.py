"""The heap policy set at import: freed pages stay mapped for reuse."""

import os
import platform
import subprocess
import sys
import textwrap

import pytest

from repro import heap

glibc_only = pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="the policy is a glibc mallopt"
)

#: a fresh interpreter imports repro and then runs a step-shaped round 50
#: times: a 16 MB array and the two temporaries computed from it, all
#: freed at the end (without the policy glibc trims the 48 MB heap top
#: every round and the next round re-faults it)
_ROUNDS = textwrap.dedent("""
    import resource
    import numpy as np
    import repro

    def step():
        a = np.ones(1 << 21)  # 16 MB
        b = a * 2.0
        c = a + b
        return float(c[-1])

    def faults():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    step()
    f0 = faults()
    for _ in range(50):
        step()
    print((faults() - f0) / 50)
""")


@glibc_only
def test_freed_pages_are_reused():
    run = subprocess.run(
        [sys.executable, "-c", _ROUNDS], capture_output=True, text=True, check=True,
        timeout=120, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert float(run.stdout.split()[-1]) <= 50


@glibc_only
def test_policy_takes_on_glibc():
    assert heap.keep_freed_pages() is True


class _NoMallopt:
    """A C library without ``mallopt`` (musl, macOS)."""


def test_no_mallopt_is_a_no_op(monkeypatch):
    monkeypatch.setattr(heap, "_libc", _NoMallopt)
    assert heap.keep_freed_pages() is False


def test_no_c_library_is_a_no_op(monkeypatch):
    def missing():
        raise OSError("no C library")

    monkeypatch.setattr(heap, "_libc", missing)
    assert heap.keep_freed_pages() is False
