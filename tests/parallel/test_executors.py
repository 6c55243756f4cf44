"""Executor backends: bitwise determinism, crash robustness, telemetry
merge, and the optim/parallel layering contract."""

import multiprocessing
import os
import re
import signal
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro.parallel as parallel_pkg
from repro.data import ShardedFrameStore, make_loader
from repro.model import DeePMD, ModelEnsemble, ModelSession, make_batch
from repro.online import IncrementalTrainer
from repro.optim import FaultInjector, KalmanConfig, WorkerSpec
from repro.parallel import (
    EXECUTOR_NAMES,
    DistributedFEKF,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    WorkerCrash,
    make_executor,
)
from repro.serve import InferenceService, ServeConfig
from repro.telemetry import Tracer
from repro.telemetry import metrics as _metrics


def _kcfg():
    return KalmanConfig(blocksize=1024)


def _exists(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _counter(name, **labels):
    return _metrics.REGISTRY.counter(name, **labels).value


def _train(cu_dataset, small_cfg, executor, world=2, steps=2, fault=None,
           fault_rank=1, reuse_force_graph=True):
    """Run a short training and return (weights, checksum trace, abe trace)."""
    model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
    dist = DistributedFEKF(
        model, world_size=world, kalman_cfg=_kcfg(), seed=7, executor=executor,
        reuse_force_graph=reuse_force_graph,
    )
    if fault is not None:
        dist.inject_fault(fault_rank, fault)
    batch = make_batch(cu_dataset, np.arange(4), small_cfg)
    checksums, abes = [], []
    for _ in range(steps):
        stats = dist.step_batch(batch)
        checksums.append(dist.kalman.checksum())
        abes.append(stats["force_abe"])
    weights = model.params.flatten()
    dist.close()
    return weights, checksums, abes


def _train_fresh(cu_dataset, small_cfg, executor, fault=None):
    """:func:`_train` under the paper-exact protocol: a fresh force graph
    per group, so one force round per group."""
    return _train(cu_dataset, small_cfg, executor, fault=fault, reuse_force_graph=False)


class TestDeterminism:
    """Property: per-rank compute is a pure function of (weights, shard)
    and results reduce in rank order, so every backend is bit-identical."""

    @pytest.mark.parametrize("kind", ["thread", "process"])
    @pytest.mark.parametrize("world", [2, 3, 4])
    def test_training_bitwise_matches_serial(self, cu_dataset, small_cfg, kind, world):
        w_ref, cks_ref, abe_ref = _train(cu_dataset, small_cfg, "serial", world)
        w, cks, abe = _train(cu_dataset, small_cfg, kind, world)
        assert np.array_equal(w_ref, w)  # bitwise, not allclose
        assert cks == cks_ref  # full KalmanState.checksum() trace
        assert abe == abe_ref  # reduced ABEs identical

    @pytest.mark.parametrize("kind", EXECUTOR_NAMES)
    def test_shard_results_bitwise_identical(self, cu_dataset, small_cfg, kind):
        """The raw per-rank reduced gradients/ABEs coming back from an
        executor round are bit-identical to in-process evaluation."""
        model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        spec = WorkerSpec(model=model)
        batch = make_batch(cu_dataset, np.arange(4), small_cfg)
        shards = [batch.frame_slice(0, 2), batch.frame_slice(2, 4)]
        ref = [spec.build(rank=r) for r in range(2)]
        expected = []
        for r, shard in enumerate(shards):
            ref[r].set_shard(shard)
            expected.append(ref[r].energy_task())
        with make_executor(kind, 2) as ex:
            ex.start(spec)
            ex.submit([("set_shard", (s,)) for s in shards])
            results = ex.submit([("energy_task", ())] * 2)
        for res, exp in zip(results, expected):
            assert np.array_equal(res.payload.grad, exp.grad)
            assert res.payload.abe_sum == exp.abe_sum
            assert res.payload.count == exp.count


def _run_service(cu_dataset, small_cfg, kind, fault=None):
    """Every frame of the dataset through a 2-rank service in bundles of
    four; the per-frame (energy, forces, version) sequence."""
    model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
    cfg = ServeConfig(
        executor=kind, world_size=2, cache_predictions=False, cache_neighbors=False
    )
    fallbacks0 = _counter("serve.fallbacks")
    with InferenceService(ModelSession(model), cfg) as svc:
        if fault is not None:
            svc.inject_fault(1, fault)
        preds = []
        for lo in range(0, 12, 4):
            preds += svc.predict_many(
                cu_dataset.positions[lo : lo + 4], cu_dataset.species, cu_dataset.cell
            )
        stats = svc.stats()
        pool = svc._executor
        assert pool is not None and not pool.degraded  # healed, still serving
    # the per-instance tally and the registry counter tell one story
    assert stats["fallbacks"] == _counter("serve.fallbacks") - fallbacks0
    assert stats["responses"] == 12
    return [(p.energy, p.forces.tobytes(), p.model_version) for p in preds]


def _batch_bytes(idx, batch):
    return (idx.tobytes(),) + tuple(
        getattr(batch, f).tobytes()
        for f in ("coords", "idx_flat", "shift", "mask", "species", "energies", "forces")
    )


def _run_loader(cu_dataset, small_cfg, kind, fault=None):
    """One prefetched epoch on 2 ranks; the (indices, batch) sequence."""
    loader = make_loader(
        cu_dataset, 4, cfg=small_cfg, seed=3, prefetch=True, executor=kind, workers=2
    )
    with loader:
        loader.warm_up()
        if fault is not None:
            loader._executor.inject_fault(1, fault)
        return [_batch_bytes(i, b) for i, b in loader.iter_batches(epoch_index=0)]


class _FaultyStore(ShardedFrameStore):
    """A label store that fails *inside* a training round, once: while
    the marker file exists, a rank's second batch read (one step is
    applied by then) claims the marker -- atomically, so exactly one rank
    on any backend -- and then raises, or, with ``kill``, takes its
    worker process down.  The marker travels with the store's path to
    process ranks."""

    marker = ""
    kill = False

    def arm(self, marker, kill=False) -> None:
        self.marker, self.kill, self.reads = str(marker), kill, {}
        Path(marker).touch()

    def __getstate__(self) -> dict:
        return {**super().__getstate__(), "marker": self.marker, "kill": self.kill}

    def __setstate__(self, state: dict) -> None:
        super().__setstate__(state)
        self.marker, self.kill, self.reads = state["marker"], state["kill"], {}

    def neighbor_tables(self, indices, rcut, nmax):
        if self.marker and os.path.exists(self.marker):
            rank = (os.getpid(), threading.get_ident())
            self.reads[rank] = self.reads.get(rank, 0) + 1
            if self.reads[rank] >= 2 and self._claim():
                if self.kill and multiprocessing.parent_process() is not None:
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("label store failed mid-round")
        return super().neighbor_tables(indices, rcut, nmax)

    def _claim(self) -> bool:
        try:
            os.unlink(self.marker)
        except FileNotFoundError:
            return False
        return True


def _member_rounds(cu_dataset, small_cfg, kind, marker=None, kill=False):
    """Three rounds of a 2-member :class:`IncrementalTrainer` on ``kind``
    ranks over a label store, the filters pulled after the first (so a
    crashed second round has a parent-side copy to restore from --
    unless ``kill``, which leaves the parent nothing); the store is
    armed to fail for the second round only.  Returns the trainer's
    final state and the rank pids seen before / after the second
    round."""
    ens = ModelEnsemble.for_dataset(cu_dataset, small_cfg, n_models=2, seed=1)
    with tempfile.TemporaryDirectory() as tmp:
        store = _FaultyStore.create(tmp, species=cu_dataset.species, cell=cu_dataset.cell)
        store.append_dataset(cu_dataset)
        trainer = IncrementalTrainer(
            ens, label_store=store, kalman_cfg=_kcfg(), batch_size=4,
            epochs_per_round=1, seed=3, executor=kind,
        )
        try:
            trainer.train_round(seed_offset=-1)
            if not kill:
                assert all(o.kalman.updates > 0 for o in trainer.optimizers)
            pids = [getattr(p, "pid", None) for p in getattr(trainer.executor, "_procs", [])]
            if marker is not None:
                store.arm(marker, kill=kill)
            trainer.train_round(seed_offset=0)
            assert not Path(marker or "/nonexistent").exists()
            health = trainer.rank_health()
            assert health["alive"] == [True, True] and not health["degraded"]
            tasks0 = _counter("online.member_tasks", executor=kind)
            trainer.train_round(seed_offset=1)
            # the third round ran on the (healed) ranks, not on the fallback
            assert _counter("online.member_tasks", executor=kind) == tasks0 + 2
            state = [
                (m.params.flatten(), o.kalman.updates, o.kalman.checksum())
                for m, o in zip(ens.models, trainer.optimizers)
            ]
            new_pids = [getattr(p, "pid", None) for p in getattr(trainer.executor, "_procs", [])]
            return state, pids, new_pids
        finally:
            trainer.close()
            store.close()


#: consumer -> (runner, compute tasks to fault, fallback counters that
#: must move together)
CONSUMERS = {
    "trainer": (
        _train,
        ("energy_task", "force_task"),
        ("parallel.serial_fallbacks",),
    ),
    "trainer-fresh": (_train_fresh, ("force_task",), ("parallel.serial_fallbacks",)),
    "service": (
        _run_service,
        ("predict_task",),
        ("parallel.serial_fallbacks", "serve.fallbacks"),
    ),
    "loader": (_run_loader, ("make_batch",), ("parallel.serial_fallbacks",)),
}


def _crash_rows(every_task):
    """consumer x backend (x faulted task) rows.  The trainer rows keep
    the ids they had when this table covered the trainer alone."""
    rows = []
    for consumer, (_, tasks, _) in CONSUMERS.items():
        for task in tasks if every_task else tasks[:1]:
            for kind in EXECUTOR_NAMES:
                if consumer != "trainer":
                    row_id = f"{consumer}-{kind}"
                else:
                    row_id = f"{task}-{kind}" if every_task else kind
                rows.append(pytest.param(consumer, task, kind, id=row_id))
    return rows


class TestCrashRobustness:
    """The rank runtime's crash semantics, once, for every consumer on
    every backend: retry in place, else fall back, heal, lose nothing."""

    @pytest.mark.parametrize("consumer,task,kind", _crash_rows(every_task=False))
    def test_single_failure_retried_in_place(
        self, cu_dataset, small_cfg, consumer, task, kind
    ):
        """One injected failure is absorbed by the in-place retry: no
        fallback, and the result is bit-identical to a clean run."""
        run, _, fallback_counters = CONSUMERS[consumer]
        ref = run(cu_dataset, small_cfg, kind)
        names = ("parallel.worker_retries", "parallel.executor_heals") + fallback_counters
        before = {n: _counter(n) for n in names}
        got = run(cu_dataset, small_cfg, kind, fault=FaultInjector(task, times=1))
        np.testing.assert_equal(got, ref)  # exact, through the nesting
        before["parallel.worker_retries"] += 1
        assert {n: _counter(n) for n in names} == before

    @pytest.mark.parametrize("consumer,task,kind", _crash_rows(every_task=True))
    def test_double_failure_falls_back_to_serial(
        self, cu_dataset, small_cfg, consumer, task, kind
    ):
        """A rank failing its task twice triggers the caller's fallback
        and one heal; the trainer's weights / the service's predictions /
        the loader's batch sequence stay bit-identical, and the retry,
        fallback and heal counters each move by exactly one."""
        run, _, fallback_counters = CONSUMERS[consumer]
        ref = run(cu_dataset, small_cfg, kind)
        names = ("parallel.worker_retries", "parallel.executor_heals") + fallback_counters
        before = {n: _counter(n) for n in names}
        got = run(cu_dataset, small_cfg, kind, fault=FaultInjector(task, times=2))
        np.testing.assert_equal(got, ref)  # exact, through the nesting
        assert {n: _counter(n) for n in names} == {n: v + 1 for n, v in before.items()}

    @pytest.mark.parametrize(
        "kind", [pytest.param(k, id=f"trainer-{k}") for k in EXECUTOR_NAMES]
    )
    def test_mutating_round_is_never_replayed(
        self, cu_dataset, small_cfg, tmp_path, kind
    ):
        """The online trainer's ranks own their filters, so a round that
        raised half-way is not retried on the half-updated P: it goes
        straight to the fallback, which restores the pulled filter state
        and runs the round once.  Weights, P and the update count end
        exactly where a clean run ends -- nothing applied twice -- and
        the healed ranks carry on from there."""
        ref, _, _ = _member_rounds(cu_dataset, small_cfg, kind)
        names = ("parallel.worker_retries", "parallel.serial_fallbacks",
                 "parallel.executor_heals", "online.filter_restarts")
        before = {n: _counter(n) for n in names}
        got, _, _ = _member_rounds(
            cu_dataset, small_cfg, kind, marker=tmp_path / "fail-once"
        )
        np.testing.assert_equal(got, ref)  # weights, kalman.updates, checksum
        before["parallel.serial_fallbacks"] += 1
        before["parallel.executor_heals"] += 1
        assert {n: _counter(n) for n in names} == before

    def test_killed_trainer_rank_mid_round(self, cu_dataset, small_cfg, tmp_path):
        """A trainer rank killed in the middle of a round: the round
        still completes (on fresh parent-side filters -- nothing was ever
        pulled -- counted as restarts), the dead rank is respawned and
        re-seeded per member, and the next round runs on ranks again."""
        names = ("parallel.serial_fallbacks", "parallel.worker_respawns",
                 "parallel.executor_heals")
        before = {n: _counter(n) for n in names}
        restarts0 = _counter("online.filter_restarts")
        state, pids, new_pids = _member_rounds(
            cu_dataset, small_cfg, "process", marker=tmp_path / "die-once", kill=True
        )
        assert {n: _counter(n) for n in names} == {n: v + 1 for n, v in before.items()}
        assert _counter("online.filter_restarts") == restarts0 + 2
        assert sum(a != b for a, b in zip(pids, new_pids)) == 1  # one respawn
        # the restarted filters saw the faulted round and the one after
        # it, each exactly once
        steps = 2 * (cu_dataset.n_frames // 4)
        assert [updates for _, updates, _ in state] == [5 * steps] * 2

    def test_rank_processes_do_not_outlive_a_killed_parent(self):
        """Forked ranks inherit each other's pipe ends, so a SIGKILLed
        parent never reads as EOF: an idle rank notices it was orphaned
        and exits instead of holding its replica (a member's P) forever."""
        script = textwrap.dedent("""
            import os, signal
            import repro.parallel.executor as ex_mod

            ex_mod._ORPHAN_POLL_S = 0.2

            class Worker:
                tasks = frozenset({"pid"})
                span, compute_tasks, counter = "w", {}, "w.tasks"
                def __init__(self, rank):
                    self.rank = rank
                def pid(self):
                    return os.getpid()

            class Spec:
                def build(self, rank=0):
                    return Worker(rank)

            pool = ex_mod.ProcessExecutor(2)
            pool.start(Spec())
            print(*(r.payload for r in pool.broadcast("pid")), flush=True)
            os.kill(os.getpid(), signal.SIGKILL)
        """)
        run = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=60, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        pids = [int(p) for p in run.stdout.split()]
        assert len(pids) == 2 and run.returncode == -signal.SIGKILL
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and any(_exists(p) for p in pids):
            time.sleep(0.1)
        assert not any(_exists(p) for p in pids)

    def test_dead_process_crashes_then_heals(self, cu_dataset, small_cfg):
        """A killed worker process surfaces as WorkerCrash; heal()
        respawns it and the executor serves tasks again."""
        model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        spec = WorkerSpec(model=model)
        with ProcessExecutor(2) as ex:
            ex.start(spec)
            ex._procs[1].terminate()
            ex._procs[1].join()
            with pytest.raises(WorkerCrash):
                ex.broadcast("get_weights")
            ex.heal(spec, [model.params.flatten()] * 2)
            results = ex.broadcast("get_weights")
            for res in results:
                assert np.array_equal(res.payload, model.params.flatten())

    def test_killed_prefetch_process_is_respawned(self, cu_dataset, small_cfg):
        """A prefetch rank killed between epochs costs one fallback group:
        the epoch it was found dead in still matches the synchronous
        loader, and the next epoch is served by the respawned rank."""
        sync = make_loader(cu_dataset, 4, cfg=small_cfg, seed=3)
        expected = [
            [_batch_bytes(i, b) for i, b in sync.iter_batches(small_cfg, epoch)]
            for epoch in (1, 2)
        ]
        loader = make_loader(
            cu_dataset, 4, cfg=small_cfg, seed=3, prefetch=True,
            executor="process", workers=2,
        )
        with loader:
            list(loader.iter_batches(epoch_index=0))
            victim = loader._executor._procs[1]
            victim.terminate()
            victim.join()
            fallbacks0 = _counter("parallel.serial_fallbacks")
            respawns0 = _counter("parallel.worker_respawns")
            got = [_batch_bytes(i, b) for i, b in loader.iter_batches(epoch_index=1)]
            assert got == expected[0]
            assert _counter("parallel.serial_fallbacks") == fallbacks0 + 1
            assert _counter("parallel.worker_respawns") == respawns0 + 1
            respawned = loader._executor._procs[1]
            assert respawned.is_alive() and respawned.pid != victim.pid
            tasks0 = _counter("data.prefetch_tasks", executor="process")
            got = [_batch_bytes(i, b) for i, b in loader.iter_batches(epoch_index=2)]
            assert got == expected[1]
            assert _counter("parallel.serial_fallbacks") == fallbacks0 + 1
            assert _counter("data.prefetch_tasks", executor="process") == tasks0 + len(got)
            assert respawned.is_alive()


class TestTelemetryMerge:
    @pytest.mark.parametrize("kind", EXECUTOR_NAMES)
    def test_worker_spans_and_counters_reach_parent(
        self, cu_dataset, small_cfg, kind
    ):
        tasks0 = _counter("parallel.worker_tasks", executor=kind)
        model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        dist = DistributedFEKF(
            model, world_size=2, kalman_cfg=_kcfg(), seed=7, executor=kind
        )
        batch = make_batch(cu_dataset, np.arange(4), small_cfg)
        with Tracer() as tracer:
            dist.step_batch(batch)
        dist.close()
        # worker-local spans were captured and merged into the parent
        # stream, tagged with their rank and nested under the parent's
        # parallel.compute span
        by_name = {}
        for ev in tracer.events:
            by_name.setdefault(ev.name, []).append(ev)
        assert "fekf.forward" in by_name
        ranks = {ev.attrs.get("rank") for ev in by_name["fekf.forward"]}
        assert ranks == {0, 1}
        # ... nested (via the worker.task wrapper) under parallel.compute
        compute_ids = {ev.span_id for ev in by_name["parallel.compute"]}
        parent_of = {ev.span_id: ev.parent_id for ev in tracer.events}
        for ev in by_name["fekf.forward"]:
            pid = ev.parent_id
            while pid is not None and pid not in compute_ids:
                pid = parent_of.get(pid)
            assert pid in compute_ids
        # worker task counters merged into the parent registry, labeled
        # by executor backend
        assert _counter("parallel.worker_tasks", executor=kind) > tasks0

    def test_fallback_spans_keep_the_rank_of_each_call(self, cu_dataset, small_cfg):
        """A round answered by the parent's own worker reproduces every
        rank's call there; each merged span keeps the rank of the call."""
        model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        dist = DistributedFEKF(
            model, world_size=2, kalman_cfg=_kcfg(), seed=7, executor="serial"
        )
        dist.inject_fault(1, FaultInjector("energy_task", times=2))
        fallbacks0 = _counter("parallel.serial_fallbacks")
        with Tracer() as tracer:
            dist.step_batch(make_batch(cu_dataset, np.arange(4), small_cfg))
        dist.close()
        assert _counter("parallel.serial_fallbacks") == fallbacks0 + 1
        ranks = {
            ev.attrs.get("rank") for ev in tracer.events
            if ev.name == "worker.task" and ev.attrs.get("method") == "energy_task"
        }
        assert ranks == {0, 1}


class TestLayering:
    def test_no_private_imports_from_optim(self):
        """repro.parallel must consume repro.optim through its public
        surface only -- no underscore-prefixed imports."""
        pkg_dir = Path(parallel_pkg.__file__).parent
        import_re = re.compile(
            r"from\s+(?:repro\.optim|\.\.optim)[\w.]*\s+import\s+"
            r"(\([^)]*\)|[^\n]*)"
        )
        offenders = []
        for src_file in sorted(pkg_dir.glob("*.py")):
            for m in import_re.finditer(src_file.read_text()):
                for raw in re.split(r"[,\s()]+", m.group(1)):
                    name = raw.split("#")[0].strip()
                    if name.startswith("_"):
                        offenders.append(f"{src_file.name}: {name}")
        assert not offenders, f"private optim imports in repro.parallel: {offenders}"

    def test_loader_does_not_import_optim(self):
        """The prefetch ranks live beside their only user: the data layer
        reaches the rank runtime, never the optimizer package."""
        import repro.data.loader as loader_mod

        src = Path(loader_mod.__file__).read_text()
        assert not re.search(r"^\s*(from|import)\s+(repro\.optim|\.\.optim)", src, re.M)

    def test_worker_crash_handled_in_executor_only(self):
        """One crash path: nothing outside parallel/executor.py catches
        WorkerCrash -- consumers go through Executor.run_resilient."""
        root = Path(parallel_pkg.__file__).parents[1]
        offenders = [
            str(f.relative_to(root))
            for f in sorted(root.rglob("*.py"))
            if f != root / "parallel" / "executor.py"
            and re.search(r"except\s+[^:\n]*WorkerCrash", f.read_text())
        ]
        assert not offenders, f"except WorkerCrash outside the executor: {offenders}"


    def test_harness_imported_by_nothing_below_it(self):
        """The experiment layer sits on top: no module under src/repro
        outside harness/ imports repro.harness (analyzers report through
        their own --json, not through an experiment-layer writer)."""
        root = Path(parallel_pkg.__file__).parents[1]
        offenders = [
            str(f.relative_to(root))
            for f in sorted(root.rglob("*.py"))
            if "harness" not in f.relative_to(root).parts
            and re.search(
                r"^\s*(from|import)\s+(repro\.harness|\.+harness)\b",
                f.read_text(), re.M,
            )
        ]
        assert not offenders, f"repro.harness imported from below: {offenders}"

    def test_autograd_imports_no_observer_above_it(self):
        """Observers sit above the op stream they watch: nothing under
        autograd/ imports the op profiler or the concurrency analyzers,
        even lazily (each observer is its own context manager)."""
        root = Path(parallel_pkg.__file__).parents[1]
        offenders = [
            str(f.relative_to(root))
            for f in sorted((root / "autograd").rglob("*.py"))
            if re.search(
                r"(from|import)\s+(repro|\.\.)\.?(telemetry\.profile|"
                r"analysis\.concurrency)\b",
                f.read_text(),
            )
        ]
        assert not offenders, f"autograd imports an observer: {offenders}"


class TestMakeExecutor:
    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "thread")
        assert isinstance(make_executor(None, 2), ThreadExecutor)
        monkeypatch.delenv("REPRO_EXECUTOR")
        assert isinstance(make_executor(None, 2), SerialExecutor)

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError):
            make_executor("mpi", 2)

    def test_instance_passthrough_checks_world_size(self):
        ex = SerialExecutor(2)
        assert make_executor(ex, 2) is ex
        with pytest.raises(ValueError):
            make_executor(ex, 4)


class TestProfilerMerge:
    def test_process_executor_rank_tracks(self, cu_dataset, small_cfg):
        """Under Tracer(profile=True) + ProcessExecutor, worker op
        timelines merge back rank/pid-tagged: >=2 distinct rank tracks in
        the exported Chrome trace, no span-id collisions, and counters
        merged under the executor label."""
        from repro.telemetry import Tracer as _Tracer, validate_chrome_trace

        tasks0 = _counter("parallel.worker_tasks", executor="process")
        model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        dist = DistributedFEKF(
            model, world_size=2, kalman_cfg=_kcfg(), seed=7, executor="process"
        )
        batch = make_batch(cu_dataset, np.arange(4), small_cfg)
        with _Tracer(profile=True) as tracer:
            dist.step_batch(batch)
        dist.close()

        # span ids stay unique after the foreign merge
        ids = [ev.span_id for ev in tracer.events]
        assert len(ids) == len(set(ids))

        prof = tracer.profiler
        op_ranks = {ev.rank for ev in prof.events if ev.rank is not None}
        assert op_ranks == {0, 1}
        # process workers report their own pids, distinct from the parent
        import os
        worker_pids = {ev.pid for ev in prof.events if ev.rank is not None}
        assert len(worker_pids) == 2
        assert os.getpid() not in worker_pids
        # worker ops arrive phase-classified (fekf spans live rank-side)
        phases = prof.phase_summary()
        assert phases["forward_energy"]["kernels"] > 0
        assert phases["backward"]["kernels"] > 0
        # the parent's own timeline records the Kalman/comm phases
        main_phases = {ev.phase for ev in prof.events if ev.rank is None}
        assert "kf_update" in main_phases

        trace = tracer.chrome_trace()
        report = validate_chrome_trace(trace)
        assert len(report["rank_tracks"]) >= 2
        # counters merged under the executor label
        assert _counter("parallel.worker_tasks", executor="process") > tasks0

    def test_thread_executor_rank_tracks(self, cu_dataset, small_cfg):
        """Thread workers share the parent pid but still land on their own
        rank tracks."""
        from repro.telemetry import Tracer as _Tracer, validate_chrome_trace

        model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        dist = DistributedFEKF(
            model, world_size=2, kalman_cfg=_kcfg(), seed=7, executor="thread"
        )
        batch = make_batch(cu_dataset, np.arange(4), small_cfg)
        with _Tracer(profile=True) as tracer:
            dist.step_batch(batch)
        dist.close()
        report = validate_chrome_trace(tracer.chrome_trace())
        assert len(report["rank_tracks"]) == 2
