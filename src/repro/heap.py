"""The process-wide heap policy: freed pages stay mapped for the next step.

A training step, a served batch and an exploration segment each allocate
the same few dozen megabytes of activations, gradients and neighbor
tables, free them when the step's graph dies (at once, under the closure
rule of :mod:`repro.autograd.tensor`), and allocate them again one step
later.  glibc's defaults hand those pages back to the kernel in between:
blocks above the (dynamic, at most 32 MB) mmap threshold are unmapped on
``free``, and a heap top beyond twice that threshold is trimmed.  Every
step then re-faults its working set: ~12k minor faults per
``train_stream`` step, and a ``train_small`` step 25-35 % slower than with
its pages kept.

:func:`keep_freed_pages` pins both thresholds far above any one step's
allocations, so freed blocks go back to the heap's free lists and are
reused as they are, and grows the heap in large steps when it must grow.

Keeping freed pages is a per-heap promise, and glibc keeps one heap (an
*arena*) per allocating thread, up to eight per core.  Lanes, thread
ranks, prefetch producers, the serve batcher and the online stages each
filled an arena of their own to its own high-water mark, which the
policy then kept.  So the policy also caps glibc at one arena: every
thread's freed blocks go back to the one heap the policy keeps, and a
process peaks at its concurrent live set, not at the sum of its threads'
peaks (``train_stream`` 364 -> 239 MB; DESIGN.md §5 has the table for
every workload).  The threads then share one arena lock; their
allocations are few and large (numpy arrays), and no timing moved
beyond noise.

It runs once when :mod:`repro` is imported: forked ranks inherit it,
spawned ranks re-import the package and set it again.  The policy
changes where memory comes from, never what is computed.
"""

from __future__ import annotations

import ctypes

__all__ = [
    "ARENA_MAX", "MMAP_THRESHOLD", "TOP_PAD", "TRIM_THRESHOLD", "keep_freed_pages",
]

#: blocks below this size come from the heap instead of a private mapping
#: that ``free`` unmaps (glibc's default is dynamic and capped at 32 MB)
MMAP_THRESHOLD = 256 << 20
#: free space at the heap top is returned to the kernel only beyond this
#: (glibc's default: twice the dynamic mmap threshold)
TRIM_THRESHOLD = 1 << 30
#: extra room the heap grows by whenever it must grow (glibc's default:
#: 128 KB).  On a 2-vCPU host a traced ``train_paper`` step still took
#: 4-181 minor faults without it (7 runs), and 5-10 with it (6 runs)
TOP_PAD = 64 << 20
#: malloc arenas every thread shares (glibc's default: eight per core,
#: one per allocating thread until then)
ARENA_MAX = 1

# mallopt parameter numbers, from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_TOP_PAD = -2
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


def _libc():
    """The C library already loaded into this process."""
    return ctypes.CDLL(None)


def keep_freed_pages() -> bool:
    """Apply the policy through glibc's ``mallopt``.

    Returns whether every setting took; ``False``, with nothing changed,
    where the C library has no ``mallopt`` (musl, macOS, Windows)."""
    try:
        mallopt = _libc().mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.restype, mallopt.argtypes = ctypes.c_int, [ctypes.c_int, ctypes.c_int]
    took = [
        mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD),
        mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD),
        mallopt(_M_TOP_PAD, TOP_PAD),
        mallopt(_M_ARENA_MAX, ARENA_MAX),
    ]
    return all(r == 1 for r in took)
