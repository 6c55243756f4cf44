"""The concurrent closed loop: explore -> gate -> label -> train -> swap.

:class:`OnlineLearner` wires the four :mod:`repro.online.stages` onto
their own threads, connected by bounded queues
(:class:`~repro.serve.BoundedWorkQueue`), around a *live*
:class:`~repro.serve.InferenceService`:

* the **explorer** walks MD with a private copy of the served surrogate
  and streams candidate frames downstream;
* the **gate** scores each segment's uncertainty through the service
  itself (the same server answering external traffic -- gate decisions
  are just more requests in the micro-batcher);
* the **labeler** runs the reference potential over admitted frames;
* the **trainer** folds the label stream into persistent per-member
  FEKF filters -- each on its own rank of the rank runtime, a worker
  process unless ``executor=`` / ``$REPRO_EXECUTOR`` says otherwise, so
  a round contends with the other stages for cores, not for the
  interpreter lock -- and, when the candidate weights beat the served
  weights on held-out force RMSE, hot-swaps them into the service
  without stopping it.

The promotion gate is what makes the served error *monotone*: a swap
happens only on measured improvement, so the force-RMSE-vs-wall-clock
curve recorded in :class:`SwapRecord` entries decreases by
construction.

``pause`` / ``save_state`` / ``load_state`` make the whole loop a
resumable object: filters (P matrices and PCG64 streams), the label
pool, ledgers, the MD walker state, and the served model version all
round-trip bit-exactly through a checkpoint directory.
"""

from __future__ import annotations

import copy
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..analysis.concurrency import Guarded, TrackedLock
from ..data.dataset import Dataset
from ..data.store import read_npz, write_npz
from ..md.cell import Cell
from ..model.ensemble import ModelEnsemble
from ..md.potentials import Potential
from ..optim.base import save_ensemble_state
from ..optim.kalman import KalmanConfig
from ..serve import BoundedWorkQueue, InferenceService, ServeConfig, ServeError
from ..telemetry.monitor import HeartbeatRegistry
from ..telemetry.trace import Tracer, current_tracer, span as _span
from .ledger import LabelLedger, SwapRecord
from .stages import Explorer, IncrementalTrainer, Labeler, UncertaintyGate

__all__ = ["OnlineConfig", "OnlineLearner", "OnlineResult"]

#: queue poll interval while also watching the stop event
_POLL_S = 0.05


@dataclass
class OnlineConfig:
    """Knobs of the concurrent loop (superset of the batch round knobs)."""

    # -- exploration ---------------------------------------------------
    #: MD steps per exploration segment
    md_steps: int = 60
    #: candidate sampling stride within a segment
    sample_every: int = 10
    timestep_fs: float = 2.0
    friction: float = 0.02
    temperature: float = 300.0

    # -- uncertainty gate ----------------------------------------------
    #: trust-band bounds on max force deviation (eV/A)
    select_lo: float = 0.05
    select_hi: float = 1.0
    #: labeling budget per gated segment
    max_new_frames: int = 16

    # -- incremental training ------------------------------------------
    batch_size: int = 4
    epochs_per_round: int = 3

    # -- loop control --------------------------------------------------
    #: stop once this many live swaps succeeded (None: run to segment
    #: budget)
    target_swaps: Optional[int] = 3
    #: exploration segments per :meth:`OnlineLearner.run` call
    max_segments: int = 64
    #: capacity of each inter-stage queue (backpressure bound)
    queue_capacity: int = 4
    #: frames sampled from the holdout set for the promotion gate
    eval_frames: int = 32

    # -- serving -------------------------------------------------------
    #: service configuration when the learner owns the service; ignored
    #: when one is injected
    serve: Optional[ServeConfig] = None


@dataclass
class OnlineResult:
    """What one :meth:`OnlineLearner.run` call accomplished."""

    #: swaps promoted during this run (cumulative list lives on the learner)
    swaps: list = field(default_factory=list)
    #: ledger snapshot at the end of the run
    ledger: dict = field(default_factory=dict)
    #: training rounds completed over the learner's lifetime
    trained_rounds: int = 0
    #: held-out force RMSE currently served
    served_rmse: float = float("nan")
    #: exploration segments walked over the learner's lifetime
    segments: int = 0

    @property
    def n_swaps(self) -> int:
        return len(self.swaps)


class OnlineLearner:
    """Closed-loop online learning against a live inference service.

    Parameters mirror :class:`~repro.train.ActiveLearner` -- same
    ensemble/reference/system geometry, same warm start on
    ``initial_data`` -- plus a ``holdout`` dataset that feeds the swap
    promotion gate and an optional externally-owned ``service``.
    ``executor`` selects where the trainer stage's per-member ranks run
    (see :class:`~repro.online.IncrementalTrainer`; ``"serial"`` is the
    in-thread loop).
    """

    def __init__(
        self,
        ensemble: ModelEnsemble,
        reference: Potential,
        species: np.ndarray,
        masses: np.ndarray,
        cell: Cell,
        cfg: Optional[OnlineConfig] = None,
        kalman_cfg: Optional[KalmanConfig] = None,
        initial_data: Optional[Dataset] = None,
        holdout: Optional[Dataset] = None,
        seed: int = 0,
        service: Optional[InferenceService] = None,
        label_store=None,
        executor=None,
    ):
        self.ensemble = ensemble
        self.cfg = cfg or OnlineConfig()
        self.holdout = holdout
        self.seed = int(seed)

        # the serving surface: injected, or owned (started lazily in run)
        self._owns_service = service is None
        if service is None:
            frames = max(1, self.cfg.md_steps // self.cfg.sample_every)
            serve_cfg = self.cfg.serve or ServeConfig(
                # one exploration segment co-batches into one micro-batch,
                # so every gate decision is single-version by construction
                max_batch=frames,
                max_delay_s=0.005,
                max_queue=max(64, 4 * frames),
            )
            service = InferenceService(ensemble, serve_cfg)
        self.service = service

        # the explorer walks a private copy of member 0 -- the trainer
        # mutates the live ensemble in place, and MD must never read
        # weights mid-mutation; promoted weights arrive via a mailbox
        self._walker_model = copy.deepcopy(ensemble.models[0])
        self._rng = np.random.default_rng(seed)
        self.explorer = Explorer(
            self._walker_model, species, masses, cell,
            md_steps=self.cfg.md_steps,
            sample_every=self.cfg.sample_every,
            timestep_fs=self.cfg.timestep_fs,
            friction=self.cfg.friction,
            rng=self._rng,
        )
        self.gate = UncertaintyGate(
            self.service, species, cell,
            lo=self.cfg.select_lo, hi=self.cfg.select_hi,
            max_new_frames=self.cfg.max_new_frames,
        )
        self.labeler = Labeler(reference, species, cell)
        # an optional live ShardedFrameStore: every admitted segment is
        # appended durably, and training rounds read straight from it --
        # the label pool outlives the process and never has to fit RAM
        self.trainer = IncrementalTrainer(
            ensemble,
            kalman_cfg=kalman_cfg,
            batch_size=self.cfg.batch_size,
            epochs_per_round=self.cfg.epochs_per_round,
            seed=seed,
            label_store=label_store,
            executor=executor,
        )

        # loop state (all of it checkpointed)
        self.ledger = LabelLedger()
        self.swaps: list[SwapRecord] = []
        self.trained_rounds = 0
        self.segments = 0
        self.served_rmse = float("inf")
        self._wall_base = 0.0
        self._start_pos: Optional[np.ndarray] = None

        # cross-thread plumbing
        self._stop = threading.Event()
        self._walker_lock = TrackedLock("online.walker")
        self._walker_mailbox: Guarded = Guarded(
            None, self._walker_lock, name="online.walker_mailbox"
        )
        #: guards the progress counters and RMSE fields shared between
        #: run()'s calling thread and the stage threads
        self._state_lock = TrackedLock("online.state")
        self._trainer_error: Optional[BaseException] = None

        # health plane: per-stage liveness beacons plus the live queue
        # handles / progress clock that health() reports on
        self.heartbeats = HeartbeatRegistry()
        self._queues: tuple = ()
        self._best_rmse = float("inf")
        self._progress_t: Optional[float] = None

        if initial_data is not None:
            self.trainer.accumulate(initial_data)
            self.trainer.train_round(seed_offset=-1)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        self.trainer.close()
        if self._owns_service:
            self.service.stop()

    def __enter__(self) -> "OnlineLearner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def pause(self) -> None:
        """Ask a running loop to stop at the next stage boundary."""
        self._stop.set()

    # ------------------------------------------------------------------
    # the concurrent loop
    # ------------------------------------------------------------------
    def run(
        self,
        start: Optional[np.ndarray] = None,
        *,
        target_swaps: Optional[int] = None,
        max_segments: Optional[int] = None,
        temperature: Optional[float] = None,
    ) -> OnlineResult:
        """Run the pipeline until ``target_swaps`` live swaps succeeded,
        the segment budget is exhausted, or :meth:`pause` is called.

        Four stage threads run concurrently; this thread coordinates,
        joins them, and merges their telemetry into the ambient tracer.
        Re-entrant: a paused/resumed learner continues from its walker
        position and counters.
        """
        if start is not None:
            with self._state_lock:
                self._start_pos = np.asarray(start, dtype=np.float64).copy()
        if self._start_pos is None:
            raise ValueError("no start positions: pass `start` on the first run")
        target = self.cfg.target_swaps if target_swaps is None else target_swaps
        budget = self.cfg.max_segments if max_segments is None else max_segments
        temp = self.cfg.temperature if temperature is None else float(temperature)

        self.service.start()
        if not np.isfinite(self.served_rmse):
            rmse0 = self._holdout_rmse()  # evaluate outside the lock
            with self._state_lock:
                self.served_rmse = rmse0
        with self._state_lock:
            self._best_rmse = min(self._best_rmse, self.served_rmse)
            self._trainer_error = None
            self._progress_t = time.monotonic()
        self._stop.clear()
        self._t0 = time.perf_counter()
        swaps_before = len(self.swaps)

        cap = self.cfg.queue_capacity
        cand_q = BoundedWorkQueue(cap, name="online candidates")
        label_q = BoundedWorkQueue(cap, name="online label queue")
        train_q = BoundedWorkQueue(cap, name="online train queue")
        self._queues = (cand_q, label_q, train_q)

        ambient = current_tracer()
        stages = [
            ("explore", self._explore_loop, (cand_q, budget, temp)),
            ("gate", self._gate_loop, (cand_q, label_q)),
            ("label", self._label_loop, (label_q, train_q, temp)),
            ("train", self._train_loop, (train_q, target, swaps_before)),
        ]
        threads, tracers = [], []
        for name, body, args in stages:
            tracer = Tracer(keep_events=True) if ambient is not None else None
            tracers.append((name, tracer))
            t = threading.Thread(
                target=self._stage_main,
                args=(f"online-{name}", tracer, body, args),
                name=f"online-{name}", daemon=True,
            )
            # register before start so a stage that dies instantly is
            # still seen (dead thread, not an unknown name)
            self.heartbeats.register(f"online-{name}", thread=t)
            threads.append(t)
            t.start()
        for t in threads:
            t.join()
        if ambient is not None:
            for name, tracer in tracers:
                ambient.adopt(tracer, thread=f"online-{name}")
        self._wall_base += time.perf_counter() - self._t0
        if self._trainer_error is not None:
            raise self._trainer_error
        return OnlineResult(
            swaps=list(self.swaps[swaps_before:]),
            ledger=self.ledger.as_dict(),
            trained_rounds=self.trained_rounds,
            served_rmse=self.served_rmse,
            segments=self.segments,
        )

    # ------------------------------------------------------------------
    # stage thread bodies
    # ------------------------------------------------------------------
    def _stage_main(self, name: str, tracer: Optional[Tracer], body, args) -> None:
        try:
            if tracer is None:
                body(*args)
            else:
                with tracer:
                    body(*args)
        finally:
            # clean exit: a joined stage thread is not a corpse
            self.heartbeats.done(name)

    def _explore_loop(self, cand_q: BoundedWorkQueue, budget: int, temp: float) -> None:
        try:
            pos = self._start_pos
            for _ in range(budget):
                self.heartbeats.beat("online-explore")
                if self._stop.is_set():
                    break
                with self._walker_lock:
                    promoted = self._walker_mailbox.swap(None)
                if promoted is not None:
                    self.explorer.refresh(promoted)
                with _span("online.explore", segment=self.segments):
                    frames = self.explorer.explore(pos, temp)
                if frames.size == 0:
                    break
                pos = frames[-1].copy()
                with self._state_lock:
                    self._start_pos = pos
                    self.segments += 1
                while not self._stop.is_set():
                    self.heartbeats.beat("online-explore")
                    if cand_q.put(frames, timeout=_POLL_S, stop=self._stop):
                        break
        finally:
            cand_q.close()

    def _gate_loop(self, cand_q: BoundedWorkQueue, label_q: BoundedWorkQueue) -> None:
        try:
            for frames in self._drain(cand_q, "online-gate"):
                try:
                    with _span("online.gate", candidates=len(frames)):
                        decision = self.gate.select(frames)
                except ServeError:
                    self.ledger.record_gate_error()
                    continue
                self.ledger.record_gate(decision)
                if decision.n_selected == 0:
                    continue
                self._put(label_q, decision.selected, "online-gate")
        finally:
            label_q.close()

    def _label_loop(
        self, label_q: BoundedWorkQueue, train_q: BoundedWorkQueue, temp: float
    ) -> None:
        try:
            for frames in self._drain(label_q, "online-label"):
                with _span("online.label", frames=len(frames)):
                    labeled = self.labeler.label(frames, temp)
                self.ledger.record_labels(labeled.n_frames)
                self._put(train_q, labeled, "online-label")
        finally:
            train_q.close()

    def _train_loop(
        self, train_q: BoundedWorkQueue, target: Optional[int], swaps_before: int
    ) -> None:
        # a round blocks this stage for its whole length: beat as each
        # member's result comes home, not only between rounds
        self.trainer.on_member_result = self._beat_trainer
        try:
            for labeled in self._drain(train_q, "online-train"):
                self.trainer.accumulate(labeled)
                if not self.trainer.ready:
                    continue
                with _span("online.train", round=self.trained_rounds):
                    self.trainer.train_round(seed_offset=self.trained_rounds)
                with self._state_lock:
                    self.trained_rounds += 1
                rmse = self._holdout_rmse()
                if rmse < self.served_rmse:
                    self._promote(rmse)
                    if (
                        target is not None
                        and len(self.swaps) - swaps_before >= target
                    ):
                        self._stop.set()
                        return
        except BaseException as exc:  # surfaced by run() after join
            with self._state_lock:
                self._trainer_error = exc
            self._stop.set()
        finally:
            self.trainer.on_member_result = None

    # ------------------------------------------------------------------
    def _drain(self, q: BoundedWorkQueue, name: Optional[str] = None):
        """Yield items until the queue is closed+empty or the loop stops."""
        while True:
            if name is not None:
                self.heartbeats.beat(name)
            item = q.get(timeout=_POLL_S, stop=self._stop)
            if item is not None:
                yield item
                continue
            if self._stop.is_set() or q.drained():
                return

    def _put(self, q: BoundedWorkQueue, item, name: Optional[str] = None) -> None:
        while not self._stop.is_set():
            if name is not None:
                self.heartbeats.beat(name)
            if q.put(item, timeout=_POLL_S, stop=self._stop):
                return

    def _beat_trainer(self, member: int) -> None:
        self.heartbeats.beat("online-train")

    def _holdout_rmse(self) -> float:
        if self.holdout is None:
            dataset = self.trainer.pool
            if dataset is None:
                return float("inf")
        else:
            dataset = self.holdout
        with _span("online.evaluate"):
            scores = self.ensemble.evaluate_rmse(
                dataset, max_frames=self.cfg.eval_frames
            )
        return scores["force_rmse"]

    def _promote(self, rmse: float) -> None:
        """Hot-swap the improved weights into the live service."""
        state = self.ensemble.state_dicts()  # deep per-member copies
        with _span("online.swap", rmse=rmse):
            version = self.service.swap(state)
        with self._walker_lock:
            self._walker_mailbox.set(state[0])
        with self._state_lock:
            self.served_rmse = rmse
            self._best_rmse = min(self._best_rmse, rmse)
            self._progress_t = time.monotonic()
        self.swaps.append(
            SwapRecord(
                version=version,
                wall_s=self._wall_base + time.perf_counter() - self._t0,
                force_rmse=rmse,
                trained_frames=self.trainer.pool_frames,
                round_index=self.trained_rounds,
            )
        )

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Live health sample for the runtime monitor.

        The stock online SLO rules
        (:func:`repro.telemetry.monitor.default_online_rules`) read the
        stage heartbeats (stall/dead-thread watchdog), the served-vs-best
        RMSE pair (non-regression: the promotion gate makes regressions
        impossible, so any positive delta is a real bug), and the swap
        staleness clock (seconds since the last promotion or run start).
        """
        with self._state_lock:  # a coherent progress sample, not torn
            progress = {
                "segments": self.segments,
                "trained_rounds": self.trained_rounds,
                "served_rmse": self.served_rmse,
                "best_rmse": self._best_rmse,
                "swap_age_s": (
                    None if self._progress_t is None
                    else time.monotonic() - self._progress_t
                ),
            }
        return {
            **progress,
            "swaps": len(self.swaps),
            "queues": {q.name: q.stats() for q in self._queues},
            "heartbeats": self.heartbeats.ages(),
            "trainer_ranks": self.trainer.rank_health(),
        }

    # ------------------------------------------------------------------
    # checkpoint / resume
    # ------------------------------------------------------------------
    def save_state(self, path: str) -> None:
        """Checkpoint everything needed for a bit-exact resume.

        Members + FEKF filters (P matrices, PCG64 streams -- pulled
        from the trainer's ranks for the occasion) go into one npz; the label pool into the dataset store; counters, ledger,
        swap history, walker RNG/positions, and the served model version
        into a JSON sidecar.
        """
        os.makedirs(path, exist_ok=True)
        save_ensemble_state(
            os.path.join(path, "members.npz"),
            self.ensemble.models,
            self.trainer.optimizers,
        )
        np.savez(
            os.path.join(path, "walker.npz"),
            start_pos=self._start_pos
            if self._start_pos is not None
            else np.empty((0, 3)),
            **{f"model/{k}": v for k, v in self._walker_model.state_dict().items()},
        )
        if self.trainer.label_store is not None:
            # the store IS the durable pool: flush it and record its
            # identity so resume can verify the pool matches the filters
            self.trainer.label_store.flush()
            label_pool = {
                "store_path": self.trainer.label_store.path,
                "store_frames": self.trainer.label_store.n_frames,
                "store_fingerprint": self.trainer.label_store.fingerprint(),
            }
        else:
            label_pool = None
            if self.trainer.labeled is not None:
                write_npz(self.trainer.labeled, os.path.join(path, "labeled.npz"))
        meta = {
            "label_pool": label_pool,
            "ledger": self.ledger.as_dict(),
            "swaps": [s.as_dict() for s in self.swaps],
            "trained_rounds": self.trained_rounds,
            "segments": self.segments,
            "served_rmse": self.served_rmse,
            "wall_base": self._wall_base,
            "model_version": self.service.model_version,
            "rng_state": self._rng.bit_generator.state,
        }
        with open(os.path.join(path, "online.json"), "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)

    def load_state(self, path: str) -> None:
        """Restore a checkpoint written by :meth:`save_state`."""
        self.trainer.restore(os.path.join(path, "members.npz"))
        with np.load(os.path.join(path, "walker.npz")) as z:
            start = z["start_pos"]
            with self._state_lock:
                self._start_pos = start.copy() if start.size else None
            walker = {
                k[len("model/"):]: z[k] for k in z.files if k.startswith("model/")
            }
        if walker:
            self._walker_model.load_state_dict(walker)
        with self._walker_lock:
            self._walker_mailbox.set(None)
        with open(os.path.join(path, "online.json")) as fh:
            meta = json.load(fh)
        pool_meta = meta.get("label_pool")
        if self.trainer.label_store is not None:
            # the filters in this checkpoint were trained on exactly the
            # recorded pool; a store that has since diverged would break
            # the bit-exact-resume contract, so fail loudly instead
            if pool_meta is None:
                raise ValueError(
                    "checkpoint has an npz label pool but the learner is "
                    "store-backed; resume without label_store"
                )
            store = self.trainer.label_store
            if (
                store.n_frames != int(pool_meta["store_frames"])
                or store.fingerprint() != pool_meta["store_fingerprint"]
            ):
                raise ValueError(
                    f"label store at {store.path} does not match the "
                    f"checkpoint (expected {pool_meta['store_frames']} "
                    f"frames, fingerprint {pool_meta['store_fingerprint'][:12]}...)"
                )
        else:
            labeled_path = os.path.join(path, "labeled.npz")
            self.trainer.labeled = (
                read_npz(labeled_path) if os.path.exists(labeled_path) else None
            )
        self.ledger.load_dict(meta["ledger"])
        self.swaps = [SwapRecord.from_dict(d) for d in meta["swaps"]]
        with self._state_lock:
            self.trained_rounds = int(meta["trained_rounds"])
            self.segments = int(meta["segments"])
            self.served_rmse = float(meta["served_rmse"])
        self._wall_base = float(meta["wall_base"])
        self._rng.bit_generator.state = meta["rng_state"]
        self.service.restore_version(int(meta["model_version"]))
