"""Determinism auditor for the parallel layer.

The paper's Sec. 3.3 argument -- replicate P, communicate only gradients,
reduce in rank order -- stands or falls on *bit* reproducibility: every
executor backend must walk the exact same P trajectory.  The test suite
asserts this for a couple of steps; the auditor certifies it as a
standalone analysis over a longer run, and additionally probes the
mechanisms the guarantee rests on:

``bit-identical-p``
    Runs the same training under serial / thread / process executors and
    compares a sha256 fingerprint of (optimizer state dict + weight
    vector) *after every step*.  The first diverging step is reported
    per backend.
``rank-order``
    After every step, a ``get_weights`` round must return results in
    rank order (``results[i].telemetry.rank == i``) -- the property the
    rank-ordered reduction depends on.
``replica-sync``
    Every rank's replica weights must be bit-equal to the parent's after
    each step (the delta broadcast keeps replicas lockstep).
``single-writer-p``
    Instruments ``KalmanState.update`` with an access probe: all writes
    to the shared P must come from one thread with no overlapping entry
    (write epochs are disjoint).  A second writer thread or a reentrant
    update means the thread backend is racing on the filter state.
``sink-leak``
    The thread-local kernel-launch sink stack and the tracer stack must
    be empty after each run -- a leaked sink means some worker's
    instrumentation escapes its scope and contaminates later epochs.
``online-promotion``
    The fourth consumer of the rank runtime: the online loop's trainer
    stage keeps each committee member's filter on its own rank.  One
    closed-loop round (one segment, first candidate promoted) must end
    on the same promoted weights, ``SwapRecord.force_rmse`` and label
    ledger under every backend.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..autograd import instrument as _instrument
from ..telemetry.trace import current_tracer
from .findings import Finding, Report

__all__ = [
    "state_fingerprint",
    "SharedStateProbe",
    "BackendTrace",
    "run_backend",
    "online_promotion_fingerprint",
    "audit_determinism",
    "DEFAULT_BACKENDS",
]

DEFAULT_BACKENDS = ("serial", "thread", "process")


def state_fingerprint(optimizer, model=None) -> str:
    """sha256 over the optimizer's full state dict (sorted keys) plus the
    model weight vector: two runs share a fingerprint iff their training
    state is bit-identical."""
    h = hashlib.sha256()
    state = optimizer.state_dict()  # each call copies every P block
    for key in sorted(state):
        arr = np.ascontiguousarray(state[key])
        h.update(key.encode())
        h.update(arr.tobytes())
    if model is not None:
        h.update(np.ascontiguousarray(model.params.flatten()).tobytes())
    return h.hexdigest()


class SharedStateProbe:
    """Records the write epochs of a ``KalmanState`` instance.

    Wraps ``update_many`` (as an *instance* attribute, so other states
    are untouched; ``update`` goes through it too): each call records the
    writer thread and checks no other call is concurrently inside --
    filter calls must be serialized on a single caller thread for the
    replicated-filter argument to hold.  Inside one call the per-block
    passes over P run on the state's lanes, and each block has exactly
    one writer lane.
    """

    def __init__(self, kalman):
        self.kalman = kalman
        self.writer_threads: set[int] = set()
        self.write_epochs = 0
        self.overlaps = 0
        self._inside = 0
        self._lock = threading.Lock()
        self._orig = kalman.update_many

        def probed_update(items, scale):
            with self._lock:
                if self._inside:
                    self.overlaps += 1
                self._inside += 1
                self.writer_threads.add(threading.get_ident())
                self.write_epochs += 1
            try:
                return self._orig(items, scale)
            finally:
                with self._lock:
                    self._inside -= 1

        kalman.update_many = probed_update

    def uninstall(self) -> None:
        self.kalman.update_many = self._orig


@dataclass
class BackendTrace:
    """Everything one backend run produced that the auditor compares."""

    backend: str
    fingerprints: list = field(default_factory=list)
    force_abes: list = field(default_factory=list)
    findings: list = field(default_factory=list)
    write_epochs: int = 0
    writer_threads: int = 0
    overlaps: int = 0
    #: :func:`online_promotion_fingerprint` under this backend
    online_promotion: str = ""


def run_backend(
    backend: str,
    dataset,
    cfg,
    world_size: int = 4,
    steps: int = 20,
    seed: int = 7,
    batch_size: int = 4,
) -> BackendTrace:
    """Train ``steps`` FEKF steps under one executor backend, recording a
    per-step state fingerprint and probing the determinism mechanisms."""
    from ..model import DeePMD, make_batch
    from ..optim import KalmanConfig
    from ..parallel import DistributedFEKF

    trace = BackendTrace(backend=backend)
    model = DeePMD.for_dataset(dataset, cfg, seed=1)
    dist = DistributedFEKF(
        model,
        world_size=world_size,
        kalman_cfg=KalmanConfig(blocksize=1024),
        seed=seed,
        executor=backend,
    )
    probe = SharedStateProbe(dist.kalman)
    batch = make_batch(dataset, np.arange(batch_size), cfg)
    try:
        for step in range(steps):
            stats = dist.step_batch(batch)
            trace.force_abes.append(float(stats["force_abe"]))
            trace.fingerprints.append(state_fingerprint(dist, model))
            _probe_rank_order(dist, trace, step)
    finally:
        probe.uninstall()
        dist.close()
    trace.write_epochs = probe.write_epochs
    trace.writer_threads = len(probe.writer_threads)
    trace.overlaps = probe.overlaps
    _probe_sink_leak(trace)
    return trace


def online_promotion_fingerprint(backend: str, dataset, cfg, seed: int = 7) -> str:
    """sha256 over what one closed-loop round promotes with the trainer
    stage's ranks on ``backend``: every member's weights, the swap's
    held-out force RMSE and the label ledger.

    The round is cut so that thread timing cannot reach it: one
    exploration segment, a trust band that admits every candidate, and a
    promotion bar no candidate can miss.
    """
    from ..data import SYSTEMS, ShardedFrameStore
    from ..model import ModelEnsemble
    from ..online import OnlineConfig, OnlineLearner

    train, test = dataset.split(0.75, seed=0)
    spec = SYSTEMS[dataset.name]
    _, _, _, potential = spec.build("small")
    with tempfile.TemporaryDirectory() as tmp, ShardedFrameStore.create(
        tmp, species=dataset.species, cell=dataset.cell
    ) as store, OnlineLearner(
        ModelEnsemble.for_dataset(train, cfg, n_models=2, seed=1),
        potential, dataset.species, spec.masses(dataset.species), dataset.cell,
        label_store=store, holdout=test,
        cfg=OnlineConfig(
            md_steps=20, sample_every=10, select_lo=0.0, select_hi=float("inf"),
            max_new_frames=2, epochs_per_round=1, batch_size=4,
            target_swaps=1, max_segments=1, eval_frames=8,
        ),
        initial_data=train, seed=seed, executor=backend,
    ) as learner:
        learner.served_rmse = 1.0e9  # finite, so run() keeps it: first candidate wins
        result = learner.run(train.positions[0], temperature=400.0)
        h = hashlib.sha256()
        for model in learner.ensemble.models:
            h.update(np.ascontiguousarray(model.params.flatten()).tobytes())
    h.update(json.dumps(
        [[s.force_rmse, s.trained_frames] for s in result.swaps] + [result.ledger],
        sort_keys=True,
    ).encode())
    return h.hexdigest()


def _probe_rank_order(dist, trace: BackendTrace, step: int) -> None:
    """One ``get_weights`` round: results must come back in rank order
    and every replica must hold the parent's weights bit-for-bit."""
    results = dist.executor.broadcast("get_weights")
    parent = dist.model.params.flatten()
    for i, res in enumerate(results):
        if res.telemetry.rank != i:
            trace.findings.append(Finding(
                rule="rank-order",
                message=f"[{trace.backend}] step {step}: result slot {i} "
                        f"carries rank {res.telemetry.rank}; the reduction "
                        f"would fold ranks out of order",
                context={"backend": trace.backend, "step": step, "slot": i,
                         "rank": res.telemetry.rank},
            ))
        elif not np.array_equal(res.payload, parent):
            trace.findings.append(Finding(
                rule="replica-sync",
                message=f"[{trace.backend}] step {step}: rank {i} replica "
                        f"weights diverged from the parent (delta broadcast "
                        f"lost or misapplied)",
                context={"backend": trace.backend, "step": step, "rank": i},
            ))


def _probe_sink_leak(trace: BackendTrace) -> None:
    leaked = len(_instrument._TLS.sinks)
    if leaked:
        trace.findings.append(Finding(
            rule="sink-leak",
            message=f"[{trace.backend}] {leaked} kernel-launch sink(s) left "
                    f"on the main thread's stack after the run",
            context={"backend": trace.backend, "sinks": leaked},
        ))
    if current_tracer() is not None:
        trace.findings.append(Finding(
            rule="sink-leak",
            message=f"[{trace.backend}] a tracer is still installed on the "
                    f"main thread after the run",
            context={"backend": trace.backend},
        ))


def audit_determinism(
    world_size: int = 4,
    steps: int = 20,
    backends: Sequence[str] = DEFAULT_BACKENDS,
    dataset=None,
    cfg=None,
    seed: int = 7,
) -> Report:
    """Run the full audit and return a :class:`Report`.

    The first backend in ``backends`` is the reference trajectory
    (conventionally ``serial``); every other backend must reproduce its
    per-step fingerprints bit-for-bit.
    """
    from ..optim.lanes import blas_threads

    report = Report(tool="determinism")
    if dataset is None or cfg is None:
        from ..data import generate_dataset
        from ..model import DeePMDConfig

        if dataset is None:
            dataset = generate_dataset(
                "Cu", frames_per_temperature=2, size="small",
                equilibration_steps=8, stride=2,
            )
        if cfg is None:
            cfg = DeePMDConfig.scaled_down(rcut=3.5, nmax=16)

    traces: list[BackendTrace] = []
    for backend in backends:
        traces.append(run_backend(
            backend, dataset, cfg, world_size=world_size, steps=steps,
            seed=seed,
        ))
        traces[-1].online_promotion = online_promotion_fingerprint(
            backend, dataset, cfg, seed=seed
        )

    for check in ("bit-identical-p", "rank-order", "replica-sync",
                  "single-writer-p", "sink-leak", "online-promotion"):
        report.checks_run.append(check)

    ref = traces[0]
    for trace in traces:
        report.findings.extend(trace.findings)
        if trace.writer_threads > 1:
            report.add(Finding(
                rule="single-writer-p",
                message=f"[{trace.backend}] P was written from "
                        f"{trace.writer_threads} distinct threads; the "
                        f"Kalman update must stay on the parent thread",
                context={"backend": trace.backend,
                         "threads": trace.writer_threads},
            ))
        if trace.overlaps:
            report.add(Finding(
                rule="single-writer-p",
                message=f"[{trace.backend}] {trace.overlaps} overlapping "
                        f"entries into KalmanState.update (write epochs "
                        f"are not disjoint)",
                context={"backend": trace.backend, "overlaps": trace.overlaps},
            ))
        if trace is ref:
            continue
        if trace.online_promotion != ref.online_promotion:
            report.add(Finding(
                rule="online-promotion",
                message=f"[{trace.backend}] the online loop promoted a "
                        f"different (weights, force RMSE, ledger) than under "
                        f"{ref.backend} ({trace.online_promotion[:12]} != "
                        f"{ref.online_promotion[:12]})",
                context={"backend": trace.backend},
            ))
        for step, (a, b) in enumerate(zip(ref.fingerprints, trace.fingerprints)):
            if a != b:
                report.add(Finding(
                    rule="bit-identical-p",
                    message=f"[{trace.backend}] state fingerprint diverged "
                            f"from {ref.backend} at step {step} "
                            f"({b[:12]} != {a[:12]})",
                    context={"backend": trace.backend, "step": step},
                ))
                break  # every later step differs too; report the first

    report.metrics["world_size"] = world_size
    report.metrics["steps"] = steps
    report.metrics["backends"] = ",".join(t.backend for t in traces)
    report.metrics["write_epochs"] = ref.write_epochs
    report.metrics["fingerprints_compared"] = sum(
        len(t.fingerprints) for t in traces[1:]
    )
    if ref.fingerprints:
        report.metrics["final_fingerprint"] = ref.fingerprints[-1][:16]
    # OpenBLAS partitions its kernels by thread count, so the rounding,
    # and with it the fingerprint, depends on it: quote the two together
    report.metrics["blas_threads"] = blas_threads()
    report.metrics["online_promotion"] = ref.online_promotion[:16]
    return report
