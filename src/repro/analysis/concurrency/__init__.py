"""repro.analysis.concurrency -- the thread-safety analysis pillar.

Three layers over one ``Finding``/``Report`` model:

* :mod:`lint` -- static AST lock-discipline rules (unguarded shared
  fields, untracked locks, unbounded waits, sleep-polling loops).
* :mod:`locks` -- :class:`TrackedLock`/:class:`TrackedRLock` wrappers
  plus the dynamic :class:`LockOrderRecorder` (``with
  LockOrderRecorder() as rec:``): acquire-order edges per thread,
  cycle detection for lock-order inversions, held-too-long findings.
* :mod:`guard` -- the :class:`Guarded` field annotation and the
  :class:`RaceChecker` (``with RaceChecker() as chk:``): any access to
  a declared field without its lock held is a ``guarded-race`` finding.

:mod:`scenarios` certifies real subsystems (queues / serve / online)
deadlock-cycle-free; everything runs under
``python -m repro.analysis concurrency``.
"""

from .guard import Guarded, RaceChecker
from .lint import CONCURRENCY_RULES, ConcurrencyLinter, lint_concurrency
from .locks import (
    GLOBAL_REGISTRY,
    LockOrderRecorder,
    LockRegistry,
    TrackedLock,
    TrackedRLock,
    current_held,
)
from .scenarios import SCENARIOS, run_scenario

__all__ = [
    "TrackedLock",
    "TrackedRLock",
    "LockRegistry",
    "GLOBAL_REGISTRY",
    "LockOrderRecorder",
    "current_held",
    "Guarded",
    "RaceChecker",
    "ConcurrencyLinter",
    "lint_concurrency",
    "CONCURRENCY_RULES",
    "SCENARIOS",
    "run_scenario",
]
