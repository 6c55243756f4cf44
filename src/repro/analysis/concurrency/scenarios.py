"""Dynamic concurrency certification scenarios.

Each scenario drives a real subsystem under a
:class:`~repro.analysis.concurrency.LockOrderRecorder` and a
:class:`~repro.analysis.concurrency.RaceChecker` and folds their
findings into one :class:`~repro.analysis.findings.Report`:

``queues``
    Pure-primitive smoke: a two-stage producer/consumer pipeline over
    :class:`repro.serve.BoundedWorkQueue` with heartbeats — fast enough
    for every CI run, exercises queue + registry lock nesting.
``serve``
    A tiny :class:`repro.serve.InferenceService` (thread executor,
    2 ranks) under concurrent clients with a mid-traffic hot swap — the
    swap-lock → batch-cond nesting is the one real lock order on the
    serving path.
``online``
    The full closed loop (explore/gate/label/train stages over bounded
    queues, live service hot swap) — the deadlock-free certification the
    ``concurrency-smoke`` CI job uploads a lock graph for.

A scenario passes when the lock-order graph is acyclic and the race
checker saw no guarded access without its declared lock.  Heavy imports
stay inside the scenario bodies (same discipline as
``analysis.determinism``) so importing this module is cheap and free of
cycles.

``run_scenario`` also accepts a *path* to a Python file defining
``run()`` — the hook the seeded deadlock fixture (and any out-of-tree
scenario) uses.
"""

from __future__ import annotations

import importlib.util
import tempfile
import threading
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from ..findings import Finding, Report
from .guard import RaceChecker
from .locks import LockOrderRecorder

__all__ = ["SCENARIOS", "run_scenario"]


def _scenario_queues() -> Dict[str, float]:
    from ...serve import BoundedWorkQueue
    from ...telemetry.monitor import HeartbeatRegistry

    stage_a = BoundedWorkQueue(8, name="smoke-a")
    stage_b = BoundedWorkQueue(8, name="smoke-b")
    beats = HeartbeatRegistry()
    items = 200
    done = []

    def producer(k: int):
        beats.register(f"producer-{k}")
        for j in range(items // 2):
            stage_a.put((k, j), timeout=5.0)
            beats.beat(f"producer-{k}")
        beats.done(f"producer-{k}")

    def relay():
        beats.register("relay")
        while True:
            got = stage_a.get(timeout=0.05)
            if got is None:
                if stage_a.closed and stage_a.drained():
                    break
                continue
            stage_b.put(got, timeout=5.0)
            beats.beat("relay")
        stage_b.close()
        beats.done("relay")

    def consumer():
        beats.register("consumer")
        while True:
            got = stage_b.get(timeout=0.05)
            if got is None:
                if stage_b.closed and stage_b.drained():
                    break
                continue
            done.append(got)
            beats.beat("consumer")
        beats.done("consumer")

    threads = [
        threading.Thread(target=producer, args=(0,), daemon=True),
        threading.Thread(target=producer, args=(1,), daemon=True),
        threading.Thread(target=relay, daemon=True),
        threading.Thread(target=consumer, daemon=True),
    ]
    for t in threads:
        t.start()
    threads[0].join(timeout=30.0)
    threads[1].join(timeout=30.0)
    stage_a.close()
    for t in threads[2:]:
        t.join(timeout=30.0)
    if len(done) != items:
        raise RuntimeError(
            f"queues scenario lost items: {len(done)}/{items} delivered"
        )
    return {"items": float(len(done)), "heartbeats": float(len(beats.ages()))}


def _scenario_serve() -> Dict[str, float]:
    import numpy as np

    from ...data import generate_dataset
    from ...model import DeePMD, DeePMDConfig, ModelSession
    from ...serve import InferenceService, ServeConfig

    dataset = generate_dataset(
        "Cu", frames_per_temperature=2, size="small",
        equilibration_steps=8, stride=2,
    )
    cfg = DeePMDConfig.scaled_down(rcut=3.5, nmax=16)
    model = DeePMD.for_dataset(dataset, cfg, seed=3)
    swap_state = model.state_dict()
    frames = [
        np.ascontiguousarray(dataset.positions[t])
        for t in range(min(dataset.n_frames, 6))
    ]
    clients, per_client = 3, 6
    errors = []

    service = InferenceService(
        ModelSession(model),
        ServeConfig(max_batch=4, executor="thread", world_size=2,
                    cache_predictions=False),
    )

    def client(k: int):
        for j in range(per_client):
            try:
                service.predict(
                    frames[(k + j) % len(frames)], dataset.species,
                    dataset.cell, timeout=30.0,
                )
            except Exception as exc:  # surfaced as a scenario finding
                errors.append(f"client-{k}: {exc!r}")

    with service:
        threads = [
            threading.Thread(target=client, args=(k,), daemon=True,
                             name=f"smoke-client-{k}")
            for k in range(clients)
        ]
        for t in threads:
            t.start()
        version = service.swap(swap_state)  # hot swap mid-traffic
        for t in threads:
            t.join(timeout=60.0)
    if errors:
        raise RuntimeError("; ".join(errors[:3]))
    return {
        "requests": float(clients * per_client),
        "swapped_version": float(version),
    }


def _scenario_online() -> Dict[str, float]:
    from ...data import SYSTEMS, ShardedFrameStore, generate_dataset
    from ...model import DeePMDConfig, ModelEnsemble
    from ...online import OnlineConfig, OnlineLearner

    dataset = generate_dataset(
        "Cu", frames_per_temperature=3, size="small",
        equilibration_steps=8, stride=2,
    )
    train, test = dataset.split(0.75, seed=0)
    cfg = DeePMDConfig.scaled_down(rcut=3.5, nmax=16)
    ensemble = ModelEnsemble.for_dataset(train, cfg, n_models=2, seed=1)
    spec = SYSTEMS["Cu"]
    _, _, _, potential = spec.build("small")
    ocfg = OnlineConfig(
        md_steps=20, sample_every=10, epochs_per_round=1,
        batch_size=4, max_new_frames=4, select_lo=0.0,
        target_swaps=1, max_segments=6, eval_frames=8,
    )
    with tempfile.TemporaryDirectory() as tmp, ShardedFrameStore.create(
        tmp, species=dataset.species, cell=dataset.cell
    ) as store, OnlineLearner(
        ensemble, potential, dataset.species,
        spec.masses(dataset.species), dataset.cell,
        label_store=store, holdout=test, cfg=ocfg, initial_data=train, seed=0,
    ) as learner:
        result = learner.run(train.positions[0], temperature=300.0)
    return {
        "segments": float(result.segments),
        "swaps": float(len(result.swaps)),
    }


SCENARIOS: Dict[str, Callable[[], Dict[str, float]]] = {
    "queues": _scenario_queues,
    "serve": _scenario_serve,
    "online": _scenario_online,
}


def _load_scenario_file(path: Path) -> Callable[[], Optional[dict]]:
    spec = importlib.util.spec_from_file_location(
        f"_concurrency_scenario_{path.stem}", path
    )
    if spec is None or spec.loader is None:
        raise ValueError(f"cannot import scenario file {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    run = getattr(module, "run", None)
    if not callable(run):
        raise ValueError(f"scenario file {path} defines no run() callable")
    return run


def run_scenario(
    name: str,
    held_threshold_s: Optional[float] = None,
) -> Tuple[Report, dict]:
    """Run one scenario under lock-order + race capture.

    ``name`` is a built-in scenario name (:data:`SCENARIOS`) or a path
    to a Python file defining ``run()``.  Returns ``(report, graph)``
    where ``graph`` is the JSON-ready lock-order graph.
    """
    if name in SCENARIOS:
        body: Callable = SCENARIOS[name]
        label = name
    else:
        path = Path(name)
        if not path.exists():
            raise ValueError(
                f"unknown scenario {name!r}; expected one of "
                f"{sorted(SCENARIOS)} or a path to a file defining run()"
            )
        body = _load_scenario_file(path)
        label = path.stem

    report = Report(tool="concurrency-scenario",
                    checks_run=[f"scenario:{label}"])
    kwargs = {} if held_threshold_s is None \
        else {"held_threshold_s": held_threshold_s}
    error: Optional[str] = None
    with LockOrderRecorder(**kwargs) as recorder, RaceChecker() as checker:
        try:
            metrics = body() or {}
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            metrics = {}
    report.extend(recorder.report())
    report.extend(checker.report())
    if error is not None:
        report.add(Finding(
            rule="scenario-error",
            message=f"scenario {label!r} raised: {error}",
            context={"scenario": label},
        ))
    for key, value in metrics.items():
        report.metrics[f"{label}.{key}"] = value
    return report, recorder.graph()
