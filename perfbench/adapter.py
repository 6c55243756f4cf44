"""The only module of perfbench that imports ``repro``.

Everything the workloads construct comes through here, so the pinned API
surface (``PINNED``, also listed in the README) is the complete list of
what a refactor under ``src/`` must keep for the benchmark to run.  Only
top-level ``repro`` exports and the stage/worker objects they hand out
are used -- nothing from ``repro.harness``, ``repro.perf`` or
``repro.telemetry``, and none of the deprecated shims.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro import (  # noqa: F401  (re-exported for the workloads)
    SYSTEMS,
    Callback,
    DeePMD,
    DeePMDConfig,
    DistributedFEKF,
    FEKF,
    InferenceService,
    KalmanConfig,
    KernelCounter,
    ModelSession,
    OnlineConfig,
    OnlineLearner,
    ServeConfig,
    ShardedFrameStore,
    SimCommunicator,
    TargetCriterion,
    Trainer,
    generate_dataset,
    make_batch,
    make_loader,
)
from repro.md.neighbor import max_neighbor_count, neighbor_table  # noqa: F401
from repro.model.ensemble import ModelEnsemble  # noqa: F401
from repro.model.session import frame_fingerprint, frames_to_batch  # noqa: F401
from repro.parallel.comm import allreduce_volume_bytes  # noqa: F401
from repro.parallel.executor import WorkerCrash
from repro.serve import ServeError  # noqa: F401

#: dotted names the benchmark depends on (the self-test imports each)
PINNED = (
    "repro.SYSTEMS", "repro.Callback", "repro.DeePMD", "repro.DeePMDConfig",
    "repro.DistributedFEKF", "repro.FEKF", "repro.InferenceService",
    "repro.KalmanConfig", "repro.KernelCounter", "repro.ModelSession",
    "repro.OnlineConfig", "repro.OnlineLearner", "repro.ServeConfig",
    "repro.ShardedFrameStore", "repro.SimCommunicator",
    "repro.TargetCriterion", "repro.Trainer", "repro.generate_dataset",
    "repro.make_batch", "repro.make_loader",
    "repro.md.neighbor.max_neighbor_count", "repro.md.neighbor.neighbor_table",
    "repro.model.ensemble.ModelEnsemble",
    "repro.model.session.frame_fingerprint",
    "repro.model.session.frames_to_batch",
    "repro.parallel.comm.allreduce_volume_bytes",
    "repro.parallel.executor.WorkerCrash",
    "repro.serve.ServeError",
)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------
@dataclass
class Inputs:
    """Generated inputs of one run: everything the program is shown."""

    train: object
    test: object
    rcut: float
    nmax: int

    @property
    def species(self):
        return self.train.species

    @property
    def cell(self):
        return self.train.cell


def cu_inputs(seed: int, frames_per_temperature: int) -> Inputs:
    """Cu ``size="small"`` (32 atoms) from ``generate_dataset(seed=seed)``.

    The cutoff never drops below the first coordination shell and Nm is
    sized from the data -- the derivation the harness uses, inlined so
    the benchmark does not pin ``repro.harness``."""
    spec = SYSTEMS["Cu"]
    ds = generate_dataset(
        "Cu",
        frames_per_temperature=frames_per_temperature,
        size="small",
        seed=seed,
        equilibration_steps=30,
        stride=4,
    )
    rcut = min(spec.rcut, max(ds.cell.max_cutoff() * 0.99, spec.first_shell * 1.35))
    probes = np.linspace(0, ds.n_frames - 1, 5).astype(int)
    counts = [max_neighbor_count(ds.positions[t], ds.cell, rcut) for t in probes]
    nmax = min(max(counts) + 2, 26)
    train, test = ds.split(0.8, seed=seed)
    return Inputs(train=train, test=test, rcut=rcut, nmax=nmax)


def net_config(inputs: Inputs, network: str = "scaled") -> DeePMDConfig:
    make = DeePMDConfig.paper if network == "paper" else DeePMDConfig.scaled_down
    return make(rcut=inputs.rcut, nmax=inputs.nmax)


def new_model(inputs: Inputs, cfg: DeePMDConfig, seed: int) -> DeePMD:
    return DeePMD.for_dataset(inputs.train, cfg, seed=seed + 1)


def kalman_config(blocksize: int = 2048) -> KalmanConfig:
    return KalmanConfig(blocksize=blocksize, fused_update=True)


def serial_fekf(model: DeePMD, blocksize: int = 2048, compiled: bool = False) -> FEKF:
    """The workloads' optimizer.  The tape-compiled engine stands down
    under the fused descriptor kernel, so the compiled twin runs without it."""
    return FEKF(
        model, kalman_config(blocksize), fused_env=not compiled, compiled=compiled
    )


def cu_reference():
    """(potential, masses-function) of the Cu reference labeler."""
    spec = SYSTEMS["Cu"]
    _, _, _, potential = spec.build("small")
    return potential, spec.masses


# ---------------------------------------------------------------------------
# small probes that need repro types
# ---------------------------------------------------------------------------
def weights_sha(model: DeePMD) -> str:
    return hashlib.sha256(model.params.flatten().tobytes()).hexdigest()


class CrashCounter:
    """Counts ``WorkerCrash`` escaping an executor's ``submit`` -- each one
    is a serial fallback of the data-parallel trainer, seen from outside."""

    def __init__(self, executor):
        self.count = 0
        inner = executor.submit

        def submit(calls, capture=False):
            try:
                return inner(calls, capture=capture)
            except WorkerCrash:
                self.count += 1
                raise

        executor.submit = submit
