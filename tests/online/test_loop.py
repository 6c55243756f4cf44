"""The concurrent closed loop end to end: swaps happen, the ledger adds
up, error strictly decreases, traffic is never mixed-version."""

import threading

import numpy as np
import pytest

from repro import telemetry


class TestOnlineLoop:
    def test_closed_loop_promotes_and_improves(self, make_learner, split):
        learner = make_learner(target_swaps=1, max_segments=10)
        train, test = split
        initial = learner.ensemble.evaluate_rmse(test, max_frames=8)["force_rmse"]
        result = learner.run(train.positions[0], temperature=400.0)

        assert result.n_swaps >= 1
        rmses = [s.force_rmse for s in result.swaps]
        assert all(a > b for a, b in zip([initial] + rmses, rmses))
        assert result.served_rmse == rmses[-1]
        versions = [s.version for s in result.swaps]
        assert versions == sorted(versions)
        walls = [s.wall_s for s in result.swaps]
        assert walls == sorted(walls) and all(np.isfinite(w) and w > 0 for w in walls)
        assert learner.service.model_version == versions[-1]

    def test_ledger_adds_up(self, make_learner, split):
        learner = make_learner(target_swaps=None, max_segments=4)
        train, _ = split
        result = learner.run(train.positions[0], temperature=400.0)
        ledger = result.ledger
        assert ledger["segments"] == 4
        assert ledger["candidates"] == 4 * learner.explorer.frames_per_segment
        assert ledger["requested"] == ledger["labeled"]
        assert ledger["avoided"] == ledger["candidates"] - ledger["requested"]
        assert ledger["gate_errors"] == 0
        assert ledger["mixed_version_batches"] == 0

    def test_service_serves_throughout_and_after(self, make_learner, split):
        learner = make_learner(target_swaps=1, max_segments=10)
        train, test = split
        errors = []
        stop = threading.Event()

        def client():
            while not stop.is_set():
                try:
                    learner.service.predict(
                        test.positions[0], test.species, test.cell, timeout=30.0
                    )
                except Exception as exc:  # any failure is downtime
                    errors.append(exc)

        learner.service.start()
        t = threading.Thread(target=client, daemon=True)
        t.start()
        try:
            result = learner.run(train.positions[0], temperature=400.0)
        finally:
            stop.set()
            t.join()
        assert errors == []
        # the service survived every swap and still answers
        pred = learner.service.predict(test.positions[1], test.species, test.cell)
        assert pred.model_version == learner.service.model_version
        assert result.ledger["mixed_version_batches"] == 0

    def test_pause_stops_the_pipeline(self, make_learner, split):
        learner = make_learner(target_swaps=None, max_segments=10_000)
        train, _ = split
        done = threading.Event()
        holder = {}

        def run():
            holder["result"] = learner.run(train.positions[0], temperature=400.0)
            done.set()

        t = threading.Thread(target=run, daemon=True)
        t.start()
        deadline = 30.0
        while learner.segments < 2 and deadline > 0:
            done.wait(0.05)
            deadline -= 0.05
        learner.pause()
        assert done.wait(timeout=60.0), "pipeline did not stop after pause()"
        t.join()
        assert holder["result"].segments >= 2

    def test_resumable_run_continues_counters(self, make_learner, split):
        learner = make_learner(target_swaps=None, max_segments=2)
        train, _ = split
        first = learner.run(train.positions[0], temperature=400.0)
        second = learner.run(temperature=400.0)  # continues from walker pos
        assert first.segments == 2
        assert second.segments == 4
        assert second.ledger["segments"] == 4

    def test_stage_spans_merge_into_ambient_tracer(self, make_learner, split):
        learner = make_learner(target_swaps=None, max_segments=2)
        train, _ = split
        with telemetry.Tracer(keep_events=True) as tracer:
            learner.run(train.positions[0], temperature=400.0)
        names = {e.name for e in tracer.events}
        assert "online.explore" in names
        assert "online.gate" in names
        threads = {e.attrs.get("thread") for e in tracer.events}
        assert "online-explore" in threads

    def test_round_telemetry_and_rank_liveness(self, make_learner, split):
        train, _ = split
        learner = make_learner(
            target_swaps=None, max_segments=2, executor="process",
            select_hi=float("inf"),  # every segment admits labels -> trains
        )
        reg = telemetry.metrics.REGISTRY
        rounds0 = [
            reg.histogram("online.train_round_s", member=k).count for k in range(2)
        ]
        steps0 = reg.counter("train.steps").value
        shipped0 = reg.counter("online.shipped_bytes").value
        returned0 = reg.counter("online.returned_bytes").value
        beats, beat = [], learner._beat_trainer
        learner._beat_trainer = lambda member: (beats.append(member), beat(member))
        with telemetry.Tracer(keep_events=True) as tracer:
            result = learner.run(train.positions[0], temperature=400.0)
        rounds = result.trained_rounds
        assert rounds >= 1
        # the stage heartbeat beat as each member's result came home
        assert beats == [0, 1] * rounds
        # the ranks ship their spans home: every train.step of both
        # members nests under the stage's online.train span
        by_id = {e.span_id: e for e in tracer.events}
        steps = [e for e in tracer.events if e.name == "train.step"]
        assert {e.attrs["rank"] for e in steps} == {0, 1}
        for e in steps:
            chain = []
            while e.parent_id is not None:
                e = by_id[e.parent_id]
                chain.append(e.name)
            assert chain[:2] == ["online.member_round", "online.train"]
        assert [
            reg.histogram("online.train_round_s", member=k).count for k in range(2)
        ] == [n + rounds for n in rounds0]
        assert reg.counter("train.steps").value > steps0
        # weights come home every round: at least one weight vector per member
        weights_bytes = learner.ensemble.models[0].num_params * 8
        assert reg.counter("online.returned_bytes").value - returned0 >= (
            2 * rounds * weights_bytes
        )
        assert reg.counter("online.shipped_bytes").value > shipped0
        health = learner.health()
        assert health["trainer_ranks"] == {
            "executor": "process", "alive": [True, True], "degraded": False
        }
        learner.close()
        assert learner.health()["trainer_ranks"]["alive"] == [False, False]

    @pytest.mark.parametrize("kind", ["online"])
    def test_close_reaps_the_ranks(self, make_learner, kind):
        import multiprocessing

        def ranks():
            return [
                p for p in multiprocessing.active_children()
                if p.name.startswith("fekf-rank-")
            ]

        before = len(ranks())
        learner = make_learner(executor="process")
        assert len(ranks()) == before + 2
        learner.close()
        assert len(ranks()) == before
        learner.close()  # idempotent

    def test_warm_start_trains_on_initial_data(self, make_learner, split):
        """``initial_data`` lands in the label store and every member's
        filter has trained on it before the loop starts."""
        train, _ = split
        learner = make_learner()
        store = learner.trainer.label_store
        assert learner.trainer.pool_frames == store.n_frames == train.n_frames
        assert np.array_equal(store.to_dataset().positions, train.positions)
        assert all(opt.kalman.updates > 0 for opt in learner.trainer.optimizers)

    def test_round_ships_the_pool_path_not_its_frames(self, make_learner, split):
        """On process ranks a round sends the store as its path: the bytes
        shipped per round do not grow with the label pool."""
        _, test = split
        learner = make_learner(executor="process")
        trainer = learner.trainer
        shipped = telemetry.metrics.REGISTRY.counter("online.shipped_bytes")

        def round_bytes() -> float:
            before = shipped.value
            trainer.train_round(seed_offset=0)
            return shipped.value - before

        first = round_bytes()
        frames = trainer.pool_frames
        trainer.accumulate(test)
        assert trainer.pool_frames == frames + test.n_frames
        assert round_bytes() == first
        # less than the frames just added: no frame crossed the pipe
        assert 0 < first < test.n_frames * trainer.label_store.record_bytes

    def test_requires_start_positions_once(self, make_learner):
        learner = make_learner()
        try:
            learner.run()
        except ValueError as exc:
            assert "start" in str(exc)
        else:
            raise AssertionError("run() without start positions must fail")
