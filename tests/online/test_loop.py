"""The concurrent closed loop end to end: swaps happen, the ledger adds
up, error strictly decreases, traffic is never mixed-version."""

import threading

import numpy as np

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

    def test_requires_start_positions_once(self, make_learner):
        learner = make_learner()
        try:
            learner.run()
        except ValueError as exc:
            assert "start" in str(exc)
        else:
            raise AssertionError("run() without start positions must fail")
