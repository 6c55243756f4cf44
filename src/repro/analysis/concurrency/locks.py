"""Tracked lock primitives and the dynamic lock-order recorder.

:class:`TrackedLock` / :class:`TrackedRLock` are drop-in wrappers around
``threading.Lock`` / ``threading.RLock`` that additionally know

* their **name** (uniquified through the process-wide
  :class:`LockRegistry`, so two ``"queue.work"`` instances become
  ``queue.work`` and ``queue.work#2``),
* whether the **current thread holds them** (the static lint's
  ``Guarded`` companion checks this at field-access time), and
* basic **hold statistics** (acquisition count, longest hold) that the
  health plane can read without any recorder installed.

While a :class:`LockOrderRecorder` is installed (``with
LockOrderRecorder() as rec:``) every first-acquisition of a tracked
lock also records a *lock-order edge* ``held -> acquired`` for each lock
the acquiring thread already holds.  A cycle in that directed graph is a
lock-order inversion: two threads that interleave the involved code
paths can deadlock even if this particular run did not.  The recorder
therefore certifies whole scenarios (serve smoke, online closed loop)
deadlock-cycle-free, which a lucky green test run alone cannot.

The wrappers implement the private ``_is_owned`` /
``_release_save`` / ``_acquire_restore`` protocol that
``threading.Condition`` probes for, so ``Condition(TrackedRLock(...))``
behaves exactly like ``Condition()`` — this is how
:class:`repro.serve.InferenceService` and
:class:`repro.serve.BoundedWorkQueue` adopt tracking without touching
their wait/notify logic.

Overhead discipline: with no recorder installed the per-acquisition cost
is one tuple truthiness test plus held-stack bookkeeping (a thread-local
list append/remove and a ``perf_counter`` stamp).  The serve benchmark
gates the *recorder-on* overhead below 5%; recorder-off tracking is in
the noise.
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import Dict, List, Optional, Tuple

__all__ = [
    "TrackedLock",
    "TrackedRLock",
    "LockRegistry",
    "GLOBAL_REGISTRY",
    "LockOrderRecorder",
    "current_held",
]


# --------------------------------------------------------------------------
# per-thread held stack + installed recorders
# --------------------------------------------------------------------------

_TLS = threading.local()


def _held_stack() -> List["TrackedLock"]:
    stack = getattr(_TLS, "held", None)
    if stack is None:
        stack = _TLS.held = []
    return stack


def current_held() -> Tuple["TrackedLock", ...]:
    """Tracked locks held by the calling thread, outermost first."""
    return tuple(_held_stack())


#: installed recorders; swapped atomically as a whole tuple so the hot
#: path needs no lock — just a truthiness test on a local read
_RECORDERS: Tuple["LockOrderRecorder", ...] = ()
_RECORDERS_MU = threading.Lock()


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

class LockRegistry:
    """Process-wide name table of live tracked locks.

    Holds weak references only — a tracked lock dies with its owner.
    ``register`` uniquifies names by ever-created count, so cycle
    detection operates on *instances* (two queues named ``queue.work``
    cannot alias into a false self-cycle).
    """

    def __init__(self):
        self._mu = threading.Lock()
        self._live: "weakref.WeakValueDictionary[str, TrackedLock]" = (
            weakref.WeakValueDictionary()
        )
        self._created: Dict[str, int] = {}

    def register(self, lock: "TrackedLock", name: str) -> str:
        with self._mu:
            n = self._created.get(name, 0) + 1
            self._created[name] = n
            unique = name if n == 1 else f"{name}#{n}"
            self._live[unique] = lock
            return unique

    def live(self) -> Dict[str, "TrackedLock"]:
        with self._mu:
            return dict(self._live)

    def health(self) -> Dict[str, Dict[str, float]]:
        """Per-lock stats for the health plane (no recorder needed)."""
        return {
            name: {
                "acquisitions": lock.acquisitions,
                "max_held_s": round(lock.max_held_s, 6),
                "held": lock.locked(),
            }
            for name, lock in sorted(self.live().items())
        }


#: default registry every :class:`TrackedLock` registers with
GLOBAL_REGISTRY = LockRegistry()


# --------------------------------------------------------------------------
# tracked locks
# --------------------------------------------------------------------------

class TrackedLock:
    """A named, observable ``threading.Lock`` (or RLock).

    Drop-in for the stdlib primitives, including as the underlying lock
    of a ``threading.Condition``.  ``reentrant=True`` (or the
    :class:`TrackedRLock` alias) wraps an RLock; recursion is tracked so
    order edges and hold timings count outermost acquire/release pairs
    only.
    """

    def __init__(
        self,
        name: Optional[str] = None,
        *,
        reentrant: bool = False,
        registry: Optional[LockRegistry] = None,
    ):
        self._inner = threading.RLock() if reentrant else threading.Lock()
        self._reentrant = bool(reentrant)
        base = name if name else f"anon@{id(self):x}"
        self.name = (registry or GLOBAL_REGISTRY).register(self, base)
        #: outermost-hold depth per owning thread ident
        self._depth: Dict[int, int] = {}
        self._t_acquired: Dict[int, float] = {}
        self.acquisitions = 0
        self.max_held_s = 0.0

    # -- core protocol -------------------------------------------------
    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if not got:
            return False
        ident = threading.get_ident()
        depth = self._depth.get(ident, 0)
        self._depth[ident] = depth + 1
        if depth == 0:
            self._note_acquired(ident)
        return True

    def release(self) -> None:
        ident = threading.get_ident()
        depth = self._depth.get(ident, 0)
        if depth == 1:
            del self._depth[ident]
            self._note_released(ident)
        elif depth > 1:
            self._depth[ident] = depth - 1
        # not held by us: let the inner lock raise its usual RuntimeError
        self._inner.release()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def locked(self) -> bool:
        return bool(self._depth)

    def held_by_current_thread(self) -> bool:
        return self._depth.get(threading.get_ident(), 0) > 0

    def __repr__(self):  # pragma: no cover - debugging aid
        kind = "TrackedRLock" if self._reentrant else "TrackedLock"
        return f"<{kind} {self.name!r} depth={dict(self._depth)}>"

    # -- bookkeeping ---------------------------------------------------
    def _note_acquired(self, ident: int) -> None:
        self.acquisitions += 1
        self._t_acquired[ident] = time.perf_counter()
        stack = _held_stack()
        recorders = _RECORDERS
        if recorders:
            for rec in recorders:
                rec.on_acquire(self, stack)
        stack.append(self)

    def _note_released(self, ident: int) -> None:
        stack = _held_stack()
        try:
            stack.remove(self)
        except ValueError:  # released on a thread that never acquired
            pass
        t0 = self._t_acquired.pop(ident, None)
        if t0 is None:
            return
        held_s = time.perf_counter() - t0
        if held_s > self.max_held_s:
            self.max_held_s = held_s
        recorders = _RECORDERS
        if recorders:
            for rec in recorders:
                rec.on_release(self, held_s)

    # -- threading.Condition integration -------------------------------
    # Condition(lock) probes for these; without them its fallback
    # ``_is_owned`` calls ``acquire(0)``, which *succeeds* on an owned
    # reentrant lock and would make ``wait()`` raise "cannot wait on
    # un-acquired lock".
    def _is_owned(self) -> bool:
        return self.held_by_current_thread()

    def _release_save(self):
        ident = threading.get_ident()
        depth = self._depth.pop(ident, 0)
        if depth:
            self._note_released(ident)
        if self._reentrant:
            return (self._inner._release_save(), depth)
        self._inner.release()
        return (None, depth)

    def _acquire_restore(self, state) -> None:
        inner_state, depth = state
        if self._reentrant:
            self._inner._acquire_restore(inner_state)
        else:
            self._inner.acquire()
        ident = threading.get_ident()
        if depth:
            self._depth[ident] = depth
            self._note_acquired(ident)


class TrackedRLock(TrackedLock):
    """Reentrant :class:`TrackedLock` (``threading.RLock`` semantics)."""

    def __init__(self, name: Optional[str] = None, *,
                 registry: Optional[LockRegistry] = None):
        super().__init__(name, reentrant=True, registry=registry)


# --------------------------------------------------------------------------
# lock-order recorder
# --------------------------------------------------------------------------

class LockOrderRecorder:
    """Record acquire/release events into a lock-order graph.

    Nodes are tracked-lock instances (by registry-unique name); a
    directed edge ``A -> B`` means some thread acquired ``B`` while
    holding ``A``.  :meth:`cycles` runs strongly-connected-component
    detection over the edge set — any non-trivial SCC (or self-loop) is
    a lock-order inversion and becomes an error-severity
    ``lock-order-cycle`` finding.  Holds longer than
    ``held_threshold_s`` become warning-severity ``lock-held-too-long``
    findings and are surfaced in :meth:`health` for the monitor plane.

    The recorder's internal mutex is a *leaf*: it is never held while a
    tracked lock is acquired, so installing the recorder cannot itself
    introduce a deadlock.

    Install it as a context manager.  Unlike the op-stream sinks it is
    **process-wide**: it observes every thread, not just the installing
    one, and nests freely with other recorders and race checkers::

        with LockOrderRecorder(held_threshold_s=0.5) as rec:
            ...
        rec.report()
    """

    def __init__(self, held_threshold_s: float = 1.0):
        if held_threshold_s <= 0.0:
            raise ValueError("held_threshold_s must be > 0")
        self.held_threshold_s = float(held_threshold_s)
        self._mu = threading.Lock()
        #: (src, dst) -> {"count": int, "threads": set[str]}
        self.edges: Dict[Tuple[str, str], Dict[str, object]] = {}
        #: name -> {"acquisitions": int, "max_held_s": float}
        self.nodes: Dict[str, Dict[str, float]] = {}
        self.slow_holds: List[Dict[str, object]] = []
        self.events = 0

    def __enter__(self) -> "LockOrderRecorder":
        global _RECORDERS
        with _RECORDERS_MU:
            _RECORDERS = _RECORDERS + (self,)
        return self

    def __exit__(self, *exc) -> None:
        global _RECORDERS
        with _RECORDERS_MU:
            _RECORDERS = tuple(r for r in _RECORDERS if r is not self)

    # -- hot-path hooks (called by TrackedLock) ------------------------
    def on_acquire(self, lock: TrackedLock, held: List[TrackedLock]) -> None:
        thread = threading.current_thread().name
        with self._mu:
            self.events += 1
            node = self.nodes.setdefault(
                lock.name, {"acquisitions": 0, "max_held_s": 0.0}
            )
            node["acquisitions"] += 1
            for h in held:
                edge = self.edges.setdefault(
                    (h.name, lock.name), {"count": 0, "threads": set()}
                )
                edge["count"] += 1
                edge["threads"].add(thread)

    def on_release(self, lock: TrackedLock, held_s: float) -> None:
        with self._mu:
            self.events += 1
            node = self.nodes.setdefault(
                lock.name, {"acquisitions": 0, "max_held_s": 0.0}
            )
            if held_s > node["max_held_s"]:
                node["max_held_s"] = held_s
            if held_s > self.held_threshold_s:
                self.slow_holds.append({
                    "lock": lock.name,
                    "held_s": round(held_s, 6),
                    "thread": threading.current_thread().name,
                })

    # -- analysis ------------------------------------------------------
    def _adjacency(self) -> Dict[str, set]:
        with self._mu:
            adj: Dict[str, set] = {}
            for (src, dst) in self.edges:
                adj.setdefault(src, set()).add(dst)
                adj.setdefault(dst, set())
            return adj

    def cycles(self) -> List[List[str]]:
        """Lock-order cycles, each as a closed node path ``[a, b, a]``."""
        adj = self._adjacency()
        out: List[List[str]] = []
        for comp in _tarjan_sccs(adj):
            if len(comp) == 1:
                node = comp[0]
                if node in adj.get(node, ()):
                    out.append([node, node])
                continue
            path = _cycle_in_component(adj, set(comp))
            if path:
                out.append(path)
        out.sort()
        return out

    def graph(self) -> Dict[str, object]:
        """JSON-ready lock-order graph (the CI artifact payload)."""
        with self._mu:
            nodes = [
                {"name": name,
                 "acquisitions": stats["acquisitions"],
                 "max_held_s": round(stats["max_held_s"], 6)}
                for name, stats in sorted(self.nodes.items())
            ]
            edges = [
                {"src": src, "dst": dst, "count": meta["count"],
                 "threads": sorted(meta["threads"])}
                for (src, dst), meta in sorted(self.edges.items())
            ]
        return {
            "schema": "repro.lockgraph/v1",
            "nodes": nodes,
            "edges": edges,
            "cycles": self.cycles(),
            "events": self.events,
        }

    def report(self):
        """Findings view: cycles are errors, slow holds are warnings."""
        from ..findings import Finding, Report

        report = Report(
            tool="lock-order",
            checks_run=["lock-order-cycle", "lock-held-too-long"],
        )
        for cycle in self.cycles():
            report.add(Finding(
                rule="lock-order-cycle",
                message=(
                    "lock-order inversion: "
                    + " -> ".join(cycle)
                    + " (threads interleaving these paths can deadlock)"
                ),
                context={"cycle": cycle},
            ))
        for hold in self.slow_holds:
            report.add(Finding(
                rule="lock-held-too-long",
                severity="warning",
                message=(
                    f"lock {hold['lock']!r} held {hold['held_s']:.3f}s by "
                    f"{hold['thread']} (threshold "
                    f"{self.held_threshold_s:.3f}s)"
                ),
                context=dict(hold),
            ))
        with self._mu:
            report.metrics.update({
                "locks": len(self.nodes),
                "order_edges": len(self.edges),
                "lock_events": self.events,
                "slow_holds": len(self.slow_holds),
            })
        report.metrics["cycles"] = len(self.cycles())
        return report

    def health(self) -> Dict[str, object]:
        """Summary for the health plane / monitor sources."""
        with self._mu:
            worst = max(
                (s["max_held_s"] for s in self.nodes.values()), default=0.0
            )
            return {
                "locks": len(self.nodes),
                "order_edges": len(self.edges),
                "slow_holds": len(self.slow_holds),
                "max_held_s": round(worst, 6),
            }


def _tarjan_sccs(adj: Dict[str, set]) -> List[List[str]]:
    """Iterative Tarjan strongly-connected components."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: set = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    for root in sorted(adj):
        if root in index:
            continue
        # frames: (node, iterator over successors)
        work = [(root, iter(sorted(adj.get(root, ()))))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for nxt in successors:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(sorted(adj.get(nxt, ())))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp.append(member)
                    if member == node:
                        break
                sccs.append(sorted(comp))
    return sccs


def _cycle_in_component(adj: Dict[str, set], comp: set) -> Optional[List[str]]:
    """One concrete cycle path inside a non-trivial SCC."""
    start = sorted(comp)[0]
    path = [start]
    seen = {start}
    node = start
    while True:
        nxt = None
        for cand in sorted(adj.get(node, ())):
            if cand in comp:
                nxt = cand
                break
        if nxt is None:  # pragma: no cover - SCC guarantees a successor
            return None
        if nxt == start:
            path.append(start)
            return path
        if nxt in seen:
            # close the loop at the first revisit
            k = path.index(nxt)
            return path[k:] + [nxt]
        seen.add(nxt)
        path.append(nxt)
        node = nxt
