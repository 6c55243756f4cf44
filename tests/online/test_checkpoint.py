"""Crash-resume certification: pause the loop mid-stream, checkpoint,
restore into a *fresh* learner, and certify bit-exact state -- label
ledger, FEKF filters (PCG64 streams included), walker RNG, label pool,
and the served model version."""

import json
import os
import threading

import numpy as np
import pytest

from repro.telemetry.metrics import REGISTRY


def _run_until_segments(learner, start, n, temperature=400.0):
    """Run the loop in a thread and pause once ``n`` segments completed.

    The learner must be built with ``target_swaps=None`` and a large
    ``max_segments`` so only :meth:`pause` ends the run."""
    holder = {}
    done = threading.Event()

    def run():
        holder["result"] = learner.run(start, temperature=temperature)
        done.set()

    t = threading.Thread(target=run, daemon=True)
    t.start()
    budget = 60.0
    while learner.segments < n and budget > 0:
        done.wait(0.05)
        budget -= 0.05
    learner.pause()
    assert done.wait(timeout=60.0)
    t.join()
    return holder["result"]


def _assert_state_dicts_equal(a: dict, b: dict, label: str) -> None:
    assert a.keys() == b.keys(), label
    for key in a:
        assert np.array_equal(a[key], b[key]), f"{label}:{key}"


class TestCheckpointResume:
    def test_mid_loop_checkpoint_restores_bit_exactly(
        self, make_learner, split, tmp_path
    ):
        train, _ = split
        source = make_learner(target_swaps=None, max_segments=10_000)
        _run_until_segments(source, train.positions[0], 3)
        ckpt = str(tmp_path / "ckpt")
        source.save_state(ckpt)

        resumed = make_learner()  # fresh learner, then restore over it
        resumed.load_state(ckpt)

        # ledger + swap history + counters
        assert resumed.ledger == source.ledger
        assert [s.as_dict() for s in resumed.swaps] == [
            s.as_dict() for s in source.swaps
        ]
        assert resumed.trained_rounds == source.trained_rounds
        assert resumed.segments == source.segments
        assert resumed.served_rmse == source.served_rmse

        # committee weights
        for k, (a, b) in enumerate(
            zip(resumed.ensemble.models, source.ensemble.models)
        ):
            _assert_state_dicts_equal(a.state_dict(), b.state_dict(), f"member{k}")

        # FEKF filters, PCG64 streams included
        for k, (a, b) in enumerate(
            zip(resumed.trainer.optimizers, source.trainer.optimizers)
        ):
            sa, sb = a.state_dict(), b.state_dict()
            assert "kalman/rng" in sa
            _assert_state_dicts_equal(sa, sb, f"fekf{k}")

        # walker: MD RNG stream and positions
        assert (
            resumed._rng.bit_generator.state == source._rng.bit_generator.state
        )
        assert np.array_equal(resumed._start_pos, source._start_pos)

        # label pool
        if source.trainer.labeled is not None:
            assert np.array_equal(
                resumed.trainer.labeled.positions, source.trainer.labeled.positions
            )
            assert np.array_equal(
                resumed.trainer.labeled.forces, source.trainer.labeled.forces
            )

        # served model version survives the restart
        assert resumed.service.model_version == source.service.model_version

    def test_checkpoint_round_trips_byte_identically(
        self, make_learner, split, tmp_path
    ):
        """save -> load -> save must reproduce the checkpoint exactly."""
        train, _ = split
        source = make_learner(target_swaps=None, max_segments=10_000)
        _run_until_segments(source, train.positions[0], 2)
        first = str(tmp_path / "first")
        source.save_state(first)

        resumed = make_learner()
        resumed.load_state(first)
        second = str(tmp_path / "second")
        resumed.save_state(second)

        with open(os.path.join(first, "online.json")) as fh:
            meta_a = json.load(fh)
        with open(os.path.join(second, "online.json")) as fh:
            meta_b = json.load(fh)
        assert meta_a == meta_b

        with np.load(os.path.join(first, "members.npz")) as za, np.load(
            os.path.join(second, "members.npz")
        ) as zb:
            assert set(za.files) == set(zb.files)
            for key in za.files:
                assert np.array_equal(za[key], zb[key]), key

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_rank_filters_resume_mid_flush_window(
        self, make_learner, tmp_path, executor
    ):
        """The filters live on the trainer's ranks: a checkpoint pulls
        them, a restore pushes them back, and the next round on the
        restored ranks continues bit-exactly -- deferred (Pg, beta) pairs
        of an open flush window included."""
        source = make_learner(executor=executor)  # warm start: one round
        ckpt = str(tmp_path / "ckpt")
        source.save_state(ckpt)
        with np.load(os.path.join(ckpt, "members.npz")) as z:
            pending = z["member0/kalman/pending_beta"].shape[1]
        assert 0 < pending < 20  # the checkpoint caught a window half-open

        resumed = make_learner(seed=5, executor=executor)  # other filters, other weights
        resumed.load_state(ckpt)
        for learner in (source, resumed):
            learner.trainer.train_round(seed_offset=0)
        for k, (a, b) in enumerate(
            zip(resumed.ensemble.models, source.ensemble.models)
        ):
            _assert_state_dicts_equal(a.state_dict(), b.state_dict(), f"member{k}")
        for k, (a, b) in enumerate(
            zip(resumed.trainer.optimizers, source.trainer.optimizers)
        ):
            _assert_state_dicts_equal(a.state_dict(), b.state_dict(), f"fekf{k}")
            assert a.kalman.updates > pending  # the round ran

    def test_process_restore_pulls_no_filter_home(self, make_learner, tmp_path):
        """A restore overwrites the ranks' filters, so it never pulls them
        first: only the acknowledgements of the push come back."""
        source = make_learner(executor="process")
        ckpt = str(tmp_path / "ckpt")
        source.save_state(ckpt)
        with np.load(os.path.join(ckpt, "members.npz")) as z:
            filter_bytes = sum(
                z[key].nbytes for key in z.files if key.startswith("member0/kalman/")
            )

        resumed = make_learner(seed=5, executor="process")
        returned = REGISTRY.counter("online.returned_bytes")
        before = returned.value
        resumed.load_state(ckpt)
        assert returned.value - before < filter_bytes / 100

    def test_resumed_loop_continues(self, make_learner, split, tmp_path):
        train, _ = split
        source = make_learner(target_swaps=None, max_segments=10_000)
        _run_until_segments(source, train.positions[0], 2)
        ckpt = str(tmp_path / "ckpt")
        source.save_state(ckpt)
        before = source.segments
        # the gate's ledger may lag the explorer's counter: frames
        # in-flight between stages at pause() are dropped, not replayed
        ledger_before = source.ledger.as_dict()["segments"]

        resumed = make_learner(target_swaps=None, max_segments=2)
        resumed.load_state(ckpt)
        result = resumed.run(temperature=400.0)
        assert result.segments == before + 2
        assert result.ledger["segments"] == ledger_before + 2

    def test_version_cannot_rewind(self, make_learner, split):
        train, _ = split
        learner = make_learner(target_swaps=1, max_segments=10)
        result = learner.run(train.positions[0], temperature=400.0)
        assert result.n_swaps >= 1
        with pytest.raises(ValueError):
            learner.service.restore_version(0)
