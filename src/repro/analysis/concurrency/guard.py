"""Annotated race checking: ``Guarded`` fields and the ``RaceChecker``.

:class:`Guarded` turns the implicit convention "``self._closed`` is
protected by ``self._cond``" into a checkable declaration::

    self._closed = Guarded(False, self._cond_lock, name="queue.closed")
    ...
    with self._cond:
        if self._closed.get():
            ...

Reads go through :meth:`Guarded.get`, writes through
:meth:`Guarded.set` / :meth:`Guarded.swap`.  With no checker installed
the cost is one module-global truthiness test per access.  Inside
``with RaceChecker() as chk:`` that process-wide checker records, for
every access, the thread, the access mode, and whether the
declared lock was actually held — any access without the lock is an
error-severity ``guarded-race`` finding.  The existing
``FaultInjector`` stall schedules widen race windows, so the watchdog
fault-injection tests double as race probes: the healthy twins must
report zero findings.

This is deliberately *annotated* checking, not a happens-before
vector-clock engine: it only validates declared invariants, which keeps
it cheap enough to run inside ordinary tests.
"""

from __future__ import annotations

import threading
from typing import Dict, Generic, List, Optional, Tuple, TypeVar

from .locks import TrackedLock

__all__ = ["Guarded", "RaceChecker"]

T = TypeVar("T")

#: installed checkers; swapped as a whole tuple (same discipline as the
#: lock-order recorder) so the unchecked fast path is branch + load
_CHECKERS: Tuple["RaceChecker", ...] = ()
_CHECKERS_MU = threading.Lock()


class Guarded(Generic[T]):
    """A field that declares which :class:`TrackedLock` protects it."""

    __slots__ = ("_value", "_lock", "_name")

    def __init__(self, value: T, lock: TrackedLock, name: str):
        if not isinstance(lock, TrackedLock):
            raise TypeError(
                "Guarded requires a TrackedLock/TrackedRLock guard, got "
                f"{type(lock).__name__}"
            )
        self._value = value
        self._lock = lock
        self._name = name

    @property
    def name(self) -> str:
        return self._name

    @property
    def lock(self) -> TrackedLock:
        return self._lock

    def get(self) -> T:
        if _CHECKERS:
            _note(self, "read")
        return self._value

    def set(self, value: T) -> None:
        if _CHECKERS:
            _note(self, "write")
        self._value = value

    def swap(self, value: T) -> T:
        """Atomically-intended read-modify-write (still lock-guarded)."""
        if _CHECKERS:
            _note(self, "write")
        old = self._value
        self._value = value
        return old

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<Guarded {self._name!r} by {self._lock.name!r}>"


def _note(guarded: Guarded, mode: str) -> None:
    held = guarded._lock.held_by_current_thread()
    thread = threading.current_thread().name
    for checker in _CHECKERS:
        checker.note(guarded._name, guarded._lock.name, mode, thread, held)


class RaceChecker:
    """Record guarded-field accesses; flag ones without the lock held.

    A process-wide context manager: while installed it sees every
    thread's accesses."""

    def __init__(self):
        self._mu = threading.Lock()
        self.accesses = 0
        #: field -> {"lock", "readers": set, "writers": set}
        self.fields: Dict[str, Dict[str, object]] = {}
        #: deduplicated (field, thread, mode) violations
        self.violations: List[Dict[str, str]] = []
        self._seen: set = set()

    def __enter__(self) -> "RaceChecker":
        global _CHECKERS
        with _CHECKERS_MU:
            _CHECKERS = _CHECKERS + (self,)
        return self

    def __exit__(self, *exc) -> None:
        global _CHECKERS
        with _CHECKERS_MU:
            _CHECKERS = tuple(c for c in _CHECKERS if c is not self)

    def note(self, field: str, lock: str, mode: str, thread: str,
             held: bool) -> None:
        with self._mu:
            self.accesses += 1
            info = self.fields.setdefault(
                field, {"lock": lock, "readers": set(), "writers": set()}
            )
            info["readers" if mode == "read" else "writers"].add(thread)
            if not held:
                key = (field, thread, mode)
                if key not in self._seen:
                    self._seen.add(key)
                    self.violations.append({
                        "field": field, "lock": lock,
                        "mode": mode, "thread": thread,
                    })

    @property
    def ok(self) -> bool:
        with self._mu:
            return not self.violations

    def report(self):
        from ..findings import Finding, Report

        report = Report(tool="race-check", checks_run=["guarded-race"])
        with self._mu:
            for v in self.violations:
                report.add(Finding(
                    rule="guarded-race",
                    message=(
                        f"guarded field {v['field']!r} {v['mode']} by thread "
                        f"{v['thread']} without declared lock {v['lock']!r} "
                        "held"
                    ),
                    context=dict(v),
                ))
            report.metrics.update({
                "guarded_accesses": self.accesses,
                "guarded_fields": len(self.fields),
                "race_violations": len(self.violations),
            })
        return report
