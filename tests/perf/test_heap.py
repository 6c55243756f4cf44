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


#: two live threads take turns running the same step, three times each:
#: one step's 48 MB is live at a time, so the process should peak at one
#: step above its start.  With a malloc arena per thread each thread kept
#: its own 48 MB (96 MB of growth); with one shared arena, 48 MB.  The
#: peak is ``VmHWM``, this address space's own: ``ru_maxrss`` keeps the
#: (v)forked test session's peak across ``exec``, which hid the growth
_TWO_THREADS = _ROUNDS.split("def faults", 1)[0] + textwrap.dedent("""
    import threading

    def peak_mb():
        with open("/proc/self/status") as fh:
            return int(next(line.split()[1] for line in fh if line.startswith("VmHWM:"))) / 1024

    turns = [threading.Event(), threading.Event()]

    def take_turns(me):
        for _ in range(3):
            turns[me].wait()
            turns[me].clear()
            step()
            turns[1 - me].set()

    start = peak_mb()
    threads = [threading.Thread(target=take_turns, args=(k,)) for k in (0, 1)]
    for t in threads:
        t.start()
    turns[0].set()
    for t in threads:
        t.join()
    print(peak_mb() - start)
""")

#: one step's live set: three 16 MB arrays
_STEP_MB = 48


def _run(script: str) -> float:
    """The last number a fresh interpreter running ``script`` prints."""
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        timeout=120, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    return float(run.stdout.split()[-1])


@glibc_only
def test_freed_pages_are_reused():
    assert _run(_ROUNDS) <= 50


@glibc_only
def test_threads_share_one_heap():
    assert _run(_TWO_THREADS) < 1.5 * _STEP_MB


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
