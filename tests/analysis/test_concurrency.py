"""The concurrency analysis pillar: lock-discipline lint (tree clean +
every rule fires on its fixture), TrackedLock semantics, the lock-order
recorder's cycle detection, the Guarded race checker, and the scenario
certification CLI."""

import json
import threading
import time
from pathlib import Path

import pytest

from repro.analysis.__main__ import main
from repro.analysis.concurrency import (
    CONCURRENCY_RULES,
    GLOBAL_REGISTRY,
    Guarded,
    LockOrderRecorder,
    RaceChecker,
    TrackedLock,
    TrackedRLock,
    current_held,
    lint_concurrency,
    run_scenario,
)

FIXTURES = Path(__file__).parent / "fixtures" / "concurrency"
REPRO_SRC = Path(__file__).parent.parent.parent / "src" / "repro"


def _rules_in(path: Path) -> dict:
    report = lint_concurrency([path])
    by_rule: dict = {}
    for f in report.findings:
        by_rule.setdefault(f.rule, []).append(f)
    return by_rule


# ---------------------------------------------------------------------------
# static lint
# ---------------------------------------------------------------------------
class TestTreeClean:
    def test_repro_package_lints_clean(self):
        report = lint_concurrency([REPRO_SRC])
        assert report.ok, report.render()
        assert report.metrics["files_scanned"] > 50

    def test_all_rules_registered_as_checks(self):
        report = lint_concurrency([REPRO_SRC])
        for rule in CONCURRENCY_RULES:
            assert rule in report.checks_run


class TestRulesFire:
    def test_unguarded_shared_field(self):
        by_rule = _rules_in(FIXTURES / "unguarded_shared_violation.py")
        findings = by_rule["unguarded-shared-field"]
        assert len(findings) == 1
        assert "self.processed" in findings[0].message
        assert findings[0].context["attr"] == "processed"

    def test_untracked_lock_in_serve_path(self):
        by_rule = _rules_in(FIXTURES / "serve" / "untracked_lock_violation.py")
        assert len(by_rule["untracked-lock"]) == 1

    def test_untracked_lock_is_scope_limited(self, tmp_path):
        # the same bare Lock outside serve/online/monitor paths is fine
        src = (FIXTURES / "serve" / "untracked_lock_violation.py").read_text()
        other = tmp_path / "elsewhere" / "dispatcher.py"
        other.parent.mkdir()
        other.write_text(src)
        by_rule = _rules_in(other)
        assert "untracked-lock" not in by_rule

    def test_unbounded_wait(self):
        by_rule = _rules_in(FIXTURES / "unbounded_wait_violation.py")
        msgs = [f.message for f in by_rule["unbounded-wait"]]
        assert len(msgs) == 2  # bare queue.get() + bare join()
        assert any(".get()" in m for m in msgs)
        assert any(".join()" in m for m in msgs)

    def test_sleep_poll(self):
        by_rule = _rules_in(FIXTURES / "sleep_poll_violation.py")
        assert len(by_rule["sleep-poll"]) == 1

    def test_suppression_comment_works(self, tmp_path):
        src = (FIXTURES / "sleep_poll_violation.py").read_text()
        src = src.replace("time.sleep(0.05)",
                          "time.sleep(0.05)  # lint: disable=sleep-poll")
        clean = tmp_path / "suppressed.py"
        clean.write_text(src)
        assert lint_concurrency([clean]).ok


# ---------------------------------------------------------------------------
# tracked locks
# ---------------------------------------------------------------------------
class TestTrackedLock:
    def test_basic_acquire_release(self):
        lock = TrackedLock("test.basic")
        assert not lock.locked()
        with lock:
            assert lock.locked()
            assert lock.held_by_current_thread()
            assert lock in current_held()
        assert not lock.locked()
        assert lock not in current_held()

    def test_rlock_reentrancy(self):
        lock = TrackedRLock("test.rlock")
        with lock:
            with lock:
                assert lock.held_by_current_thread()
            assert lock.held_by_current_thread()
        assert not lock.locked()

    def test_plain_lock_rejects_reentry(self):
        lock = TrackedLock("test.noreent")
        with lock:
            assert not lock.acquire(blocking=False)

    def test_registry_uniquifies_names(self):
        a = TrackedLock("test.dup")
        b = TrackedLock("test.dup")
        assert a.name == "test.dup"
        assert b.name.startswith("test.dup#")
        assert a.name in GLOBAL_REGISTRY.health()

    def test_condition_protocol(self):
        lock = TrackedRLock("test.cond")
        cond = threading.Condition(lock)
        hits = []

        def waiter():
            with cond:
                cond.wait(timeout=5.0)
                hits.append(lock.held_by_current_thread())

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.05)
        with cond:
            cond.notify()
        t.join(timeout=5.0)
        assert not t.is_alive()
        assert hits == [True]  # lock reacquired after wait
        assert not lock.locked()  # and fully released after the with


# ---------------------------------------------------------------------------
# lock-order recorder
# ---------------------------------------------------------------------------
class TestLockOrderRecorder:
    def test_records_nesting_edges(self):
        a, b = TrackedLock("edge.A"), TrackedLock("edge.B")
        with LockOrderRecorder() as rec:
            with a:
                with b:
                    pass
        graph = rec.graph()
        assert graph["schema"] == "repro.lockgraph/v1"
        edges = {(e["src"], e["dst"]) for e in graph["edges"]}
        assert ("edge.A", "edge.B") in edges
        assert rec.cycles() == []
        assert rec.report().ok

    def test_detects_inversion_cycle(self):
        a, b = TrackedLock("cyc.A"), TrackedLock("cyc.B")
        with LockOrderRecorder() as rec:
            with a:
                with b:
                    pass
            done = threading.Event()

            def reversed_order():
                with b:
                    with a:
                        pass
                done.set()

            t = threading.Thread(target=reversed_order)
            t.start()
            t.join(timeout=5.0)
            assert done.is_set()
        cycles = rec.cycles()
        assert len(cycles) == 1
        assert set(cycles[0]) == {"cyc.A", "cyc.B"}
        report = rec.report()
        assert not report.ok
        assert report.findings[0].rule == "lock-order-cycle"

    def test_capture_kind_locks(self):
        a = TrackedLock("cap.A")
        with LockOrderRecorder() as rec:
            with a:
                pass
        events = rec.graph()["events"]
        assert events >= 1
        with a:  # outside the capture: unobserved
            pass
        assert rec.graph()["events"] == events

    def test_held_too_long_warning(self):
        a = TrackedLock("slow.A")
        with LockOrderRecorder(held_threshold_s=0.001) as rec:
            with a:
                time.sleep(0.01)
        report = rec.report()
        assert report.ok  # warnings do not fail the report
        assert any(f.rule == "lock-held-too-long" for f in report.findings)


# ---------------------------------------------------------------------------
# guarded fields / race checker
# ---------------------------------------------------------------------------
class TestGuarded:
    def test_requires_tracked_lock(self):
        with pytest.raises(TypeError):
            Guarded(0, threading.Lock(), name="bad")

    def test_get_set_swap(self):
        lock = TrackedLock("g.lock")
        field = Guarded(1, lock, name="g.field")
        assert field.get() == 1
        field.set(2)
        assert field.swap(3) == 2
        assert field.get() == 3

    def test_checker_flags_unlocked_access(self):
        lock = TrackedLock("g2.lock")
        field = Guarded(0, lock, name="g2.field")
        with RaceChecker() as chk:
            with lock:
                field.set(1)  # guarded: fine
            field.get()  # unguarded: violation
        assert not chk.ok
        report = chk.report()
        assert len(report.findings) == 1
        assert report.findings[0].rule == "guarded-race"
        assert report.findings[0].context["mode"] == "read"

    def test_capture_kind_races_clean_when_disciplined(self):
        lock = TrackedLock("g3.lock")
        field = Guarded(0, lock, name="g3.field")
        with RaceChecker() as chk:
            with lock:
                field.set(4)
                assert field.get() == 4
        assert chk.ok
        assert chk.report().metrics["guarded_accesses"] == 2


# ---------------------------------------------------------------------------
# scenarios + CLI
# ---------------------------------------------------------------------------
class TestScenarios:
    def test_queues_scenario_certifies_clean(self):
        report, graph = run_scenario("queues")
        assert report.ok, report.render()
        assert report.metrics["cycles"] == 0
        assert report.metrics["race_violations"] == 0
        assert report.metrics["queues.items"] == 200
        assert graph["cycles"] == []
        assert graph["events"] > 0

    def test_deadlock_fixture_is_flagged(self):
        report, graph = run_scenario(str(FIXTURES / "deadlock_fixture.py"))
        assert not report.ok
        assert any(f.rule == "lock-order-cycle" for f in report.findings)
        assert len(graph["cycles"]) == 1

    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError):
            run_scenario("no-such-scenario")


class TestCLI:
    def test_help_lists_all_four_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for cmd in ("lint", "graph", "determinism", "concurrency"):
            assert cmd in out

    def test_tree_exits_zero(self, capsys):
        assert main(["concurrency", str(REPRO_SRC)]) == 0

    @pytest.mark.parametrize("fixture", [
        "unguarded_shared_violation.py",
        "serve/untracked_lock_violation.py",
        "unbounded_wait_violation.py",
        "sleep_poll_violation.py",
    ])
    def test_each_fixture_exits_one(self, fixture, capsys):
        assert main(["concurrency", str(FIXTURES / fixture)]) == 1

    def test_json_output(self, capsys):
        path = FIXTURES / "sleep_poll_violation.py"
        assert main(["concurrency", "--json", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "concurrency"
        assert all(f["rule"] == "sleep-poll" for f in payload["findings"])

    def test_unknown_scenario_exits_two(self, capsys):
        assert main(["concurrency", "--scenario", "nope",
                     str(FIXTURES / "sleep_poll_violation.py")]) == 2

    def test_graph_out_artifact(self, tmp_path, capsys):
        out = tmp_path / "graph.json"
        code = main([
            "concurrency", str(FIXTURES / "sleep_poll_violation.py"),
            "--scenario", str(FIXTURES / "deadlock_fixture.py"),
            "--graph-out", str(out),
        ])
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro.lockgraph/v1"
        (graph,) = payload["scenarios"].values()
        assert len(graph["cycles"]) == 1
