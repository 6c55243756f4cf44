"""Lanes: one helper thread per idle core, for work that releases the GIL.

Two phases of an FEKF step spend their time in calls that drop the GIL:
the Kalman core's per-block BLAS passes over P (``ctypes`` calls into
``cython_blas``, see :mod:`repro.optim.kalman`) and the force-group
gradient sweeps over the shared force graph (numpy's array kernels, see
:meth:`repro.optim.ekf.FEKF.step_batch`).  Both split their independent
items -- blocks, groups -- into *lanes*: lane 0 runs on the caller's
thread, every other lane on one thread of the process-wide helper pool.
The callers keep everything order-dependent (reductions, kernel-launch
records, state updates) on their own thread in item order, so results
are bit-identical for any lane count.

The lane count is derived, never configured: :func:`lane_count` gives one
lane per core that a multi-threaded BLAS call would not already occupy.
"""

from __future__ import annotations

import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor, wait

__all__ = ["blas_threads", "lane_count", "map_lanes"]


#: resolved once (a ``CDLL`` per call costs ~27 us and leaves cyclic
#: ctypes garbage behind every FEKF step), on the first
#: :func:`blas_threads` call, not at import: scipy costs ~25 MB of RSS
#: that a process which never runs a filter should not pay
@functools.cache
def _resolve_blas_threads():
    """scipy's ``scipy_openblas_get_num_threads``, or ``None`` when the BLAS
    behind scipy does not export it."""
    from scipy.linalg import cython_blas

    try:
        get = ctypes.CDLL(cython_blas.__file__).scipy_openblas_get_num_threads
    except AttributeError:
        return None
    get.restype, get.argtypes = ctypes.c_int, []
    return get


def blas_threads() -> int | None:
    """OpenBLAS's thread count (its live value, read on every call), or
    ``None`` when the BLAS behind scipy does not export
    ``scipy_openblas_get_num_threads``."""
    get = _resolve_blas_threads()
    return None if get is None else int(get())


def lane_count(n_items: int) -> int:
    """Lanes for ``n_items`` independent items: one per core that a
    multi-threaded BLAS call would not already occupy (a second lane
    beside a 2-thread BLAS on 2 cores is slower than none), and one when
    the BLAS thread count is unknown."""
    threads = blas_threads()
    if threads is None:
        return 1
    return max(1, min(n_items, len(os.sched_getaffinity(0)) // threads))


#: the threads that run every lane but the caller's, shared by every
#: caller in the process; none starts before the first multi-lane call
_HELPERS: ThreadPoolExecutor


def _new_helpers() -> None:
    """(Re)build the pool: at import, and in a forked child (member ranks
    fork), which inherits the pool's bookkeeping but none of its threads."""
    global _HELPERS
    _HELPERS = ThreadPoolExecutor(
        max(1, len(os.sched_getaffinity(0)) - 1), thread_name_prefix="lane"
    )


_new_helpers()
os.register_at_fork(after_in_child=_new_helpers)


def _run_lane(fn, lane: list) -> list:
    return [fn(x) for x in lane]


def map_lanes(fn, lanes: list[list[int]]) -> list:
    """``[fn(i) for i in range(n)]`` for ``lanes`` that partition
    ``range(n)``: lane 0 on this thread, each other lane on one helper
    thread, each lane's items in its order.

    Returns only once every lane has finished: an error raised in any
    lane surfaces here after the join (lane 0's first, then the helpers'
    in lane order), so no lane outlives the call."""
    first, *rest = lanes
    futures = [_HELPERS.submit(_run_lane, fn, lane) for lane in rest]
    try:
        out = dict(zip(first, _run_lane(fn, first)))
    finally:
        wait(futures)
    for lane, fut in zip(rest, futures):
        out.update(zip(lane, fut.result()))
    return [out[i] for i in range(len(out))]
