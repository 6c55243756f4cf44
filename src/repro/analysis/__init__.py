"""repro.analysis -- static & dynamic analyzers for the training stack.

Three analyzers share one finding/report model (:mod:`findings`) and one
CLI (``python -m repro.analysis``):

* :mod:`graphlint` -- records an autograd op tape (via the same launch
  sinks that feed the kernel counters) and checks graph invariants:
  float64 end to end, backward shapes, output/operand aliasing, buffer
  mutation behind autograd's back, unreachable nodes, unregistered
  kernels, and second-order safety.  Includes the dynamic
  :class:`~graphlint.Sanitizer` (NaN/Inf guard hooks on every op with
  telemetry-span attribution) and :func:`~graphlint.verify_second_order`
  (double backward vs central differences).
* :mod:`determinism` -- runs the same FEKF training under the serial /
  thread / process executors and certifies bit-identical P trajectories,
  rank-ordered results, lockstep replicas, single-writer P access, and
  clean sink stacks.
* :mod:`astlint` -- AST rules over the project source: no unseeded
  randomness, no wall-clock reads outside the manifest writer, no
  cross-subpackage private imports, no float32 casts on hot paths, every
  kernel-name literal registered, no order-nondeterministic reductions.
* :mod:`concurrency` -- the thread-safety pillar: a static lock-
  discipline lint (unguarded shared fields, untracked locks, unbounded
  waits, sleep-polling), a dynamic lock-order recorder with deadlock-
  cycle detection (``with LockOrderRecorder() as rec:``), and annotated
  race checking of :class:`~concurrency.Guarded` fields (``with
  RaceChecker() as chk:``).

Quick start::

    python -m repro.analysis lint                 # AST lint the package
    python -m repro.analysis determinism          # 3-backend audit
    python -m repro.analysis graph path/to/fixture.py
    python -m repro.analysis concurrency          # lock-discipline lint
    python -m repro.analysis concurrency --scenario online \
        --graph-out lock_order.json               # deadlock-free cert

    from repro.analysis import GraphLinter, TapeRecorder
    with TapeRecorder() as tape:
        loss = model(batch)
    print(GraphLinter(tape).lint(roots=[loss]).render())
"""

from .astlint import ProjectLinter, RULES, lint_paths
from .concurrency import (
    CONCURRENCY_RULES,
    ConcurrencyLinter,
    Guarded,
    LockOrderRecorder,
    RaceChecker,
    TrackedLock,
    TrackedRLock,
    lint_concurrency,
    run_scenario,
)
from .determinism import (
    SharedStateProbe,
    audit_determinism,
    run_backend,
    state_fingerprint,
)
from .findings import Finding, Report
from .graphlint import (
    GraphLinter,
    Sanitizer,
    SanitizerError,
    TapeRecorder,
    verify_second_order,
)

__all__ = [
    "Finding",
    "Report",
    "ProjectLinter",
    "lint_paths",
    "RULES",
    "GraphLinter",
    "TapeRecorder",
    "Sanitizer",
    "SanitizerError",
    "verify_second_order",
    "audit_determinism",
    "run_backend",
    "state_fingerprint",
    "SharedStateProbe",
    "TrackedLock",
    "TrackedRLock",
    "Guarded",
    "LockOrderRecorder",
    "RaceChecker",
    "ConcurrencyLinter",
    "lint_concurrency",
    "CONCURRENCY_RULES",
    "run_scenario",
]
