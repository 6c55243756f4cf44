"""Pipeline watchdogs: stage heartbeats and dead-thread detection.

The concurrent systems this repo grew (the serve batcher, the four
``repro.online`` stage threads) fail *silently* when they fail: a wedged
worker leaves the batcher blocked in dispatch, a crashed stage thread
leaves its queue full and its consumers starved, and nothing downstream
raises until a request timeout -- if ever.  The watchdog turns those
hangs into observable state:

* each long-running loop registers a named :class:`HeartbeatRegistry`
  entry (optionally bound to its thread object) and calls ``beat`` every
  iteration -- including idle-wait iterations, so "waiting for work" is
  healthy and "stuck in one piece of work" is not;
* :meth:`HeartbeatRegistry.ages` reports, per heartbeat, the seconds
  since the last beat, whether the bound thread is still alive, and
  whether the entry is *stalled* (beat older than its deadline, or the
  thread died before :meth:`done` was called);
* the ``heartbeat_s`` SLO rule (:mod:`.slo`) turns any stalled entry
  into a breach, which is how the fault-injection tests assert that a
  wedged :class:`~repro.serve.BoundedWorkQueue` consumer or a stalled
  ``InferenceService`` worker surfaces within the configured deadline.

``done(name)`` marks a clean exit: a joined thread that finished its
stream is not a corpse, so monitors polling after a run completes see
``ok`` rather than a false dead-thread breach.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from ...analysis.concurrency import TrackedLock

__all__ = ["HeartbeatRegistry"]


class HeartbeatRegistry:
    """Named liveness beacons for pipeline stages (thread-safe)."""

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self._clock = clock
        self._lock = TrackedLock("watchdog.heartbeats")
        self._entries: dict[str, dict] = {}

    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        deadline_s: Optional[float] = None,
        thread: Optional[threading.Thread] = None,
        now: Optional[float] = None,
    ) -> None:
        """(Re-)register a heartbeat; the first beat is implicit.

        ``deadline_s`` overrides the SLO rule's threshold for this entry
        (a slow stage -- MD exploration, a training round -- can carry a
        larger budget than its peers).  ``thread`` enables dead-thread
        detection.  Re-registering resets staleness and the done flag
        (a paused/resumed pipeline starts a fresh watch).
        """
        now = self._clock() if now is None else now
        with self._lock:
            self._entries[name] = {
                "last": now,
                "beats": 0,
                "deadline_s": deadline_s,
                "thread": thread,
                "done": False,
            }

    def beat(self, name: str, now: Optional[float] = None) -> None:
        """Refresh ``name``'s liveness stamp (auto-registers unknowns)."""
        now = self._clock() if now is None else now
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                entry = self._entries[name] = {
                    "last": now, "beats": 0, "deadline_s": None,
                    "thread": None, "done": False,
                }
            entry["last"] = now
            entry["beats"] += 1

    def done(self, name: str, now: Optional[float] = None) -> None:
        """Mark a clean exit: the stage finished its stream, so a stale
        beat / joined thread is expected, not a stall."""
        now = self._clock() if now is None else now
        with self._lock:
            entry = self._entries.get(name)
            if entry is not None:
                entry["last"] = now
                entry["done"] = True

    # ------------------------------------------------------------------
    def ages(self, now: Optional[float] = None) -> dict:
        """Per-heartbeat liveness: ``{name: {age_s, beats, deadline_s,
        alive, done, stalled}}`` -- the ``heartbeat_s`` SLO rule's input
        and a :class:`~repro.telemetry.monitor.HealthMonitor` source."""
        now = self._clock() if now is None else now
        out: dict[str, dict] = {}
        with self._lock:
            for name, e in self._entries.items():
                thread = e["thread"]
                # registered-then-started: until the thread has run at
                # all (no ident yet) it is pending, not a corpse
                alive = (
                    thread is None or thread.ident is None or thread.is_alive()
                )
                age = now - e["last"]
                stalled = not e["done"] and not alive
                if not e["done"] and e["deadline_s"] is not None:
                    stalled = stalled or age > e["deadline_s"]
                out[name] = {
                    "age_s": age,
                    "beats": e["beats"],
                    "deadline_s": e["deadline_s"],
                    "alive": alive,
                    "done": e["done"],
                    "stalled": stalled,
                }
        return out

    # the HealthSource surface (a registry can be polled directly)
    def health(self) -> dict:
        return {"heartbeats": self.ages()}

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries
