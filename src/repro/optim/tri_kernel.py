"""The hand-written ``P_stored · G`` kernel of the Kalman core.

``tri_kernel.c`` reads a block's upper triangle once for up to four
columns of ``G`` (see its header for the bit rule: every column gets the
same bits whatever the column count).  It is C because no BLAS
composition reads the triangle once for several columns: ``dsymm`` and
``dsymv`` both walk it per column.

The library is compiled on first use -- when the first
:class:`~repro.optim.kalman.KalmanState` is built, on the caller's
thread, before any rank forks -- into a per-user cache
(``$XDG_CACHE_HOME/repro``, by default ``~/.cache/repro``), under a name
that is the hash of everything the binary depends on: the source, the
flags, the compiler's version and the host CPU.  A library built for
another source, compiler or CPU is therefore never loaded.  The compiler
writes to a temporary file that is renamed into place, so processes that
build at once each load a complete library.  It is called through
``ctypes``, which releases the GIL for the call.  There is no fallback:
without a C compiler, building a filter raises.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import subprocess
import tempfile
from pathlib import Path

__all__ = ["CC", "FLAGS", "SOURCE", "build", "cache_dir", "cache_key", "load"]

#: the C compiler (``cc`` on the ``PATH``)
CC = "cc"
#: ``-ffp-contract=off`` and no ``-ffast-math``: the compiler may
#: vectorise the kernel's fixed sums but neither fuse nor reorder them
FLAGS = ("-O2", "-march=native", "-ffp-contract=off", "-std=c99", "-fPIC", "-shared")
SOURCE = Path(__file__).with_name("tri_kernel.c")


def cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro``, or ``~/.cache/repro`` when it is unset."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "repro"


def _compiler_version() -> str:
    try:
        run = subprocess.run([CC, "--version"], capture_output=True, text=True,
                             check=True, timeout=60)
    except (OSError, subprocess.SubprocessError) as exc:
        raise RuntimeError(
            f"the Kalman filter's P.G kernel needs a C compiler, and {CC!r} does not run "
            f"({exc}); install one (gcc or clang) as {CC!r}"
        ) from exc
    return run.stdout


def _host_cpu() -> str:
    """The CPU ``-march=native`` compiles for: its model and feature
    lines (every distinct one, for hosts with mixed cores)."""
    try:
        with open("/proc/cpuinfo") as f:
            lines = {
                line.strip() for line in f
                if line.startswith(("model name", "flags", "Features", "CPU implementer",
                                    "CPU part"))
            }
    except OSError:
        lines = set()
    return "\n".join([platform.machine(), platform.processor(), *sorted(lines)])


def cache_key() -> str:
    """sha256 over the source, the flags, the compiler version and the
    host CPU, each length-prefixed."""
    h = hashlib.sha256()
    for part in (SOURCE.read_bytes(), "\0".join(FLAGS).encode(),
                 _compiler_version().encode(), _host_cpu().encode()):
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def build(cache: Path) -> Path:
    """The kernel library for this host in ``cache``, compiled there
    first when no library of the current key exists."""
    lib = cache / f"tri_kernel-{cache_key()}.so"
    if lib.exists():
        return lib
    cache.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{lib.name}.", dir=cache)
    os.close(fd)
    try:
        run = subprocess.run([CC, *FLAGS, "-o", tmp, str(SOURCE)], capture_output=True,
                             text=True, timeout=300)
        if run.returncode:
            raise RuntimeError(f"{CC} could not build {SOURCE.name}:\n{run.stderr}")
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


@functools.cache
def load():
    """``tri_pg(n, p, g, y, m)``: ``y = P g`` for the n x n F-ordered
    block ``p`` (its upper triangle) and the F-ordered n x m ``g``, with
    m == 1 or a multiple of 4; bound once per process."""
    fn = ctypes.CDLL(str(build(cache_dir()))).tri_pg
    fn.restype = None
    fn.argtypes = [ctypes.c_int, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int]
    return fn
