"""Runtime health plane: windows, watchdogs, SLO rules, monitor, dashboard."""

import json
import threading
import time

import pytest

from repro.telemetry import JsonlExporter, read_jsonl
from repro.telemetry.monitor import (
    HealthMonitor,
    HealthSnapshot,
    HeartbeatRegistry,
    SLORule,
    SLOStatus,
    SlidingHistogram,
    WindowedRate,
    default_online_rules,
    default_serve_rules,
    evaluate_rule,
    render,
    render_timeline,
    worst_state,
)
from repro.telemetry.monitor.__main__ import main as monitor_cli


class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# ---------------------------------------------------------------------------
# sliding windows
# ---------------------------------------------------------------------------
class TestSlidingHistogram:
    def test_window_percentiles(self):
        clk = FakeClock()
        sh = SlidingHistogram(window_s=10.0, buckets=5, clock=clk)
        for v in [1.0, 2.0, 3.0, 4.0]:
            sh.observe(v)
        s = sh.summary()
        assert s["count"] == 4
        assert s["min"] == 1.0 and s["max"] == 4.0
        assert s["window_s"] == 10.0

    def test_old_observations_age_out(self):
        clk = FakeClock()
        sh = SlidingHistogram(window_s=10.0, buckets=5, clock=clk)
        sh.observe(100.0)
        clk.advance(4.0)
        sh.observe(1.0)
        assert sh.window().count == 2  # both inside the 10s window
        clk.advance(7.0)  # first obs now 11s old, second 7s old
        w = sh.window()
        assert w.count == 1
        assert w.max == 1.0
        clk.advance(10.0)  # everything expired
        assert sh.window().count == 0

    def test_bucket_slots_recycle(self):
        clk = FakeClock()
        sh = SlidingHistogram(window_s=5.0, buckets=5, clock=clk)
        for k in range(25):  # 5 full ring wraps
            sh.observe(float(k))
            clk.advance(1.0)
        # only the live buckets survive (the obs from t=20 is exactly
        # window_s old at t=25 and has aged out with its bucket)
        assert sh.window().count == 4
        assert sh.window().min == 21.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SlidingHistogram(window_s=0.0)
        with pytest.raises(ValueError):
            SlidingHistogram(buckets=0)


class TestWindowedRate:
    def test_windowed_rate_and_errors(self):
        clk = FakeClock()
        wr = WindowedRate(window_s=10.0, buckets=5, clock=clk)
        for _ in range(20):
            wr.mark()
            clk.advance(0.5)
        # 20 events over 10s of elapsed time
        assert wr.rate() == pytest.approx(2.0, rel=0.3)
        assert wr.error_rate() == 0.0
        wr.mark(errors=1.0)
        s = wr.summary()
        assert s["errors"] == 1.0
        assert 0.0 < s["error_rate"] < 0.2

    def test_rate_uses_elapsed_not_window_when_young(self):
        clk = FakeClock(100.0)
        wr = WindowedRate(window_s=30.0, buckets=10, clock=clk)
        for _ in range(10):
            wr.mark()
        clk.advance(2.0)
        # 10 events in ~2s must not be diluted over the full 30s window
        assert wr.rate() > 3.0

    def test_ewma_decays(self):
        clk = FakeClock()
        wr = WindowedRate(window_s=8.0, halflife_s=2.0, clock=clk)
        for _ in range(100):
            wr.mark()
        burst = wr.ewma_rate()
        assert burst > 0.0
        clk.advance(2.0)
        assert wr.ewma_rate() == pytest.approx(burst / 2.0, rel=1e-6)
        clk.advance(20.0)
        assert wr.ewma_rate() < burst / 100.0

    def test_empty(self):
        wr = WindowedRate(clock=FakeClock())
        assert wr.rate() == 0.0
        assert wr.error_rate() == 0.0
        assert wr.ewma_rate() == 0.0


# ---------------------------------------------------------------------------
# watchdog heartbeats
# ---------------------------------------------------------------------------
class TestHeartbeatRegistry:
    def test_beat_resets_age(self):
        clk = FakeClock()
        reg = HeartbeatRegistry(clock=clk)
        reg.register("stage", deadline_s=1.0)
        clk.advance(0.5)
        reg.beat("stage")
        clk.advance(0.4)
        info = reg.ages()["stage"]
        assert info["age_s"] == pytest.approx(0.4)
        assert info["beats"] == 1
        assert not info["stalled"]

    def test_deadline_overrun_is_stalled(self):
        clk = FakeClock()
        reg = HeartbeatRegistry(clock=clk)
        reg.register("stage", deadline_s=1.0)
        clk.advance(1.5)
        assert reg.ages()["stage"]["stalled"]

    def test_dead_thread_is_stalled_until_done(self):
        reg = HeartbeatRegistry()
        t = threading.Thread(target=lambda: None)
        t.start()
        t.join()
        reg.register("worker", thread=t)
        assert reg.ages()["worker"]["stalled"]
        assert not reg.ages()["worker"]["alive"]
        reg.done("worker")
        assert not reg.ages()["worker"]["stalled"]

    def test_registered_but_unstarted_thread_is_not_dead(self):
        """Stages register before ``start()`` (so an instant death is
        seen); a sample landing in between must not read as a corpse."""
        reg = HeartbeatRegistry()
        t = threading.Thread(target=lambda: None)
        reg.register("worker", thread=t)
        assert reg.ages()["worker"]["alive"]
        assert not reg.ages()["worker"]["stalled"]
        t.start()
        t.join()
        assert reg.ages()["worker"]["stalled"]

    def test_no_deadline_never_stalls_by_age(self):
        clk = FakeClock()
        reg = HeartbeatRegistry(clock=clk)
        reg.register("slow")
        clk.advance(1e6)
        assert not reg.ages()["slow"]["stalled"]

    def test_beat_auto_registers(self):
        reg = HeartbeatRegistry(clock=FakeClock())
        reg.beat("adhoc")
        assert "adhoc" in reg
        assert reg.ages()["adhoc"]["beats"] == 1

    def test_health_source_shape(self):
        reg = HeartbeatRegistry(clock=FakeClock())
        reg.register("a")
        assert set(reg.health()) == {"heartbeats"}


# ---------------------------------------------------------------------------
# SLO rules
# ---------------------------------------------------------------------------
class TestSLORules:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SLORule("bad", "nope", 1.0)

    def test_p99_latency_grades(self):
        rule = SLORule("p99", "p99_latency_s", 1.0, min_count=4)
        ok = evaluate_rule(rule, {"latency": {"count": 10, "p99": 0.5}})
        warn = evaluate_rule(rule, {"latency": {"count": 10, "p99": 0.9}})
        breach = evaluate_rule(rule, {"latency": {"count": 10, "p99": 1.5}})
        cold = evaluate_rule(rule, {"latency": {"count": 2, "p99": 9.0}})
        assert [s.state for s in (ok, warn, breach, cold)] == [
            "ok", "warn", "breach", "no_data"
        ]
        assert breach.value == 1.5

    def test_error_rate(self):
        rule = SLORule("err", "error_rate", 0.1, min_count=5)
        data = {"traffic": {"events": 50, "error_rate": 0.2}}
        assert evaluate_rule(rule, data).state == "breach"
        assert evaluate_rule(rule, {"traffic": {"events": 1}}).state == "no_data"

    def test_queue_saturation_names_worst_queue(self):
        rule = SLORule("sat", "queue_saturation", 0.9)
        data = {"queues": {
            "a": {"depth": 1, "capacity": 10},
            "b": {"depth": 10, "capacity": 10},
        }}
        s = evaluate_rule(rule, data)
        assert s.state == "breach"
        assert s.value == 1.0
        assert s.detail == "b"

    def test_queue_saturation_flat_form(self):
        rule = SLORule("sat", "queue_saturation", 0.9)
        s = evaluate_rule(rule, {"queue_depth": 3, "queue_capacity": 10})
        assert s.state == "ok" and s.value == pytest.approx(0.3)

    def test_rmse_nonregression(self):
        rule = SLORule("rmse", "rmse_nonregression", 0.0, warn_ratio=1.0)
        ok = evaluate_rule(rule, {"served_rmse": 0.5, "best_rmse": 0.5})
        breach = evaluate_rule(rule, {"served_rmse": 0.7, "best_rmse": 0.5})
        unmeasured = evaluate_rule(
            rule, {"served_rmse": float("inf"), "best_rmse": float("inf")}
        )
        assert ok.state == "ok"
        assert breach.state == "breach"
        assert unmeasured.state == "no_data"

    def test_swap_staleness(self):
        rule = SLORule("stale", "swap_staleness_s", 10.0)
        assert evaluate_rule(rule, {"swap_age_s": 3.0}).state == "ok"
        assert evaluate_rule(rule, {"swap_age_s": 30.0}).state == "breach"
        assert evaluate_rule(rule, {"swaps": 0}).state == "no_data"

    def test_heartbeat_worst_age_and_dead_thread(self):
        rule = SLORule("hb", "heartbeat_s", 5.0)
        healthy = {"heartbeats": {
            "a": {"age_s": 0.1, "alive": True, "done": False},
            "b": {"age_s": 1.0, "alive": True, "done": False},
        }}
        s = evaluate_rule(rule, healthy)
        assert s.state == "ok" and s.value == 1.0 and s.detail == "b"
        dead = {"heartbeats": {
            "a": {"age_s": 0.1, "alive": False, "done": False},
        }}
        s = evaluate_rule(rule, dead)
        assert s.state == "breach"
        assert "died" in s.detail

    def test_heartbeat_done_entries_ignored(self):
        rule = SLORule("hb", "heartbeat_s", 5.0)
        data = {"heartbeats": {
            "a": {"age_s": 99.0, "alive": False, "done": True},
        }}
        assert evaluate_rule(rule, data).state == "no_data"

    def test_per_entry_deadline_overrides_threshold(self):
        rule = SLORule("hb", "heartbeat_s", 100.0)
        data = {"heartbeats": {
            "fast": {"age_s": 2.0, "alive": True, "done": False,
                     "deadline_s": 1.0},
        }}
        assert evaluate_rule(rule, data).state == "breach"

    def test_missing_source(self):
        rule = SLORule("p99", "p99_latency_s", 1.0)
        assert evaluate_rule(rule, None).state == "no_data"

    def test_default_rule_sets(self):
        serve = default_serve_rules()
        online = default_online_rules()
        assert {r.kind for r in serve} == {
            "p99_latency_s", "error_rate", "queue_saturation", "heartbeat_s"
        }
        assert {r.kind for r in online} == {
            "heartbeat_s", "rmse_nonregression", "swap_staleness_s"
        }
        assert all(r.source == "serve" for r in serve)
        assert all(r.source == "online" for r in online)

    def test_worst_state(self):
        assert worst_state([]) == "ok"
        assert worst_state(["ok", "warn", "no_data"]) == "warn"
        assert worst_state(["warn", "breach"]) == "breach"

    def test_status_round_trips(self):
        s = SLOStatus("r", "error_rate", "serve", "warn", 0.04, 0.05, "d")
        assert SLOStatus.from_dict(s.as_dict()) == s


# ---------------------------------------------------------------------------
# the monitor
# ---------------------------------------------------------------------------
class TestHealthMonitor:
    def _monitor(self, clk=None):
        clk = clk or FakeClock()
        mon = HealthMonitor(interval_s=0.5, clock=clk)
        state = {"p99": 0.1}
        mon.add_source("serve", lambda: {
            "latency": {"count": 50, "p99": state["p99"]},
        })
        mon.add_rules(SLORule("p99", "p99_latency_s", 1.0, min_count=1))
        return mon, state, clk

    def test_poll_once_records_snapshot(self):
        mon, _, clk = self._monitor()
        clk.advance(2.0)
        snap = mon.poll_once()
        assert snap.seq == 0
        assert snap.t == pytest.approx(2.0)
        assert snap.worst == "ok"
        assert snap.statuses[0].state == "ok"
        assert mon.snapshots == [snap]

    def test_alert_fires_on_transition_only(self):
        mon, state, _ = self._monitor()
        mon.poll_once()
        assert mon.alerts == []
        state["p99"] = 5.0
        s1 = mon.poll_once()
        assert len(s1.alerts) == 1
        assert s1.alerts[0]["from"] == "ok" and s1.alerts[0]["to"] == "breach"
        # stays breached: no repeat alert
        mon.poll_once()
        assert mon.breaches() == 1
        # recovery alert
        state["p99"] = 0.1
        s3 = mon.poll_once()
        assert s3.alerts[0]["to"] == "ok"
        assert len(mon.alerts) == 2

    def test_no_data_never_alerts(self):
        mon = HealthMonitor(clock=FakeClock())
        mon.add_source("serve", lambda: {"latency": {"count": 0}})
        mon.add_rules(SLORule("p99", "p99_latency_s", 1.0, min_count=8))
        mon.poll_once()
        mon.poll_once()
        assert mon.alerts == []

    def test_source_exception_is_contained(self):
        mon = HealthMonitor(clock=FakeClock())

        def broken():
            raise RuntimeError("boom")

        mon.add_source("bad", broken)
        snap = mon.poll_once()
        assert "boom" in snap.sources["bad"]["error"]

    def test_exporter_receives_typed_lines(self, tmp_path):
        path = str(tmp_path / "health.jsonl")
        with JsonlExporter(path) as out:
            mon = HealthMonitor(clock=FakeClock(), exporter=out)
            state = {"p99": 0.1}
            mon.add_source("serve", lambda: {"latency": {"count": 9, "p99": state["p99"]}})
            mon.add_rules(SLORule("p99", "p99_latency_s", 1.0))
            mon.poll_once()
            state["p99"] = 9.0
            mon.poll_once()
        events = read_jsonl(path)
        kinds = [e["type"] for e in events]
        assert kinds.count("health") == 2
        assert kinds.count("alert") == 1
        # snapshot lines round-trip
        snap = HealthSnapshot.from_dict(
            [e for e in events if e["type"] == "health"][-1]
        )
        assert snap.worst == "breach"

    def test_background_thread_samples(self):
        mon = HealthMonitor(interval_s=0.02)
        mon.add_source("serve", lambda: {"latency": {"count": 9, "p99": 0.1}})
        mon.add_rules(SLORule("p99", "p99_latency_s", 1.0))
        with mon:
            time.sleep(0.15)
        assert len(mon.snapshots) >= 3
        assert mon.breaches() == 0
        # stop() is idempotent and the thread is gone
        mon.stop()
        assert not any(
            t.name == "health-monitor" for t in threading.enumerate()
        )

    def test_summary_shape(self):
        mon, state, _ = self._monitor()
        mon.poll_once()
        state["p99"] = 5.0
        mon.poll_once()
        s = mon.summary()
        assert s["snapshots"] == 2
        assert s["breach_alerts"] == 1
        assert s["warn_alerts"] == 0
        assert s["by_rule"]["p99"]["breach"] == 1
        assert s["worst"] == "breach"
        assert s["rules"][0]["kind"] == "p99_latency_s"
        json.dumps(s)  # manifest-ready

    def test_watch_service_and_learner_wire_defaults(self):
        class FakeSvc:
            def health(self):
                return {}

        mon = HealthMonitor(clock=FakeClock())
        mon.watch_service(FakeSvc())
        mon.watch_learner(FakeSvc())
        kinds = {r.kind for r in mon._rules}
        assert "p99_latency_s" in kinds and "rmse_nonregression" in kinds
        snap = mon.poll_once()
        assert {s.state for s in snap.statuses} == {"no_data"}

    def test_validation(self):
        with pytest.raises(ValueError):
            HealthMonitor(interval_s=0.0)
        mon = HealthMonitor(clock=FakeClock())
        with pytest.raises(TypeError):
            mon.add_source("x", object())


# ---------------------------------------------------------------------------
# dashboard
# ---------------------------------------------------------------------------
class TestDashboard:
    def _snapshot(self) -> dict:
        return {
            "type": "health", "seq": 3, "t": 1.5, "worst": "breach",
            "sources": {"serve": {
                "latency": {"count": 9, "p50": 0.01, "p99": 0.4},
                "traffic": {"events": 9.0, "rate_per_s": 3.0, "error_rate": 0.0},
                "queue_depth": 2, "queue_capacity": 64,
                "heartbeats": {"serve-batcher": {
                    "age_s": 0.01, "alive": True, "done": False,
                    "stalled": False}},
            }},
            "statuses": [
                {"rule": "p99", "kind": "p99_latency_s", "state": "breach",
                 "value": 0.4, "threshold": 0.1, "detail": ""},
            ],
            "alerts": [],
        }

    def test_render_plain(self):
        out = render(self._snapshot(), color=False)
        assert "[BREACH]" in out
        assert "p99" in out
        assert "\x1b[" not in out

    def test_render_color(self):
        assert "\x1b[31" in render(self._snapshot(), color=True)

    def test_render_timeline(self):
        alerts = [{"t": 1.0, "from": "ok", "to": "breach", "rule": "p99",
                   "value": 0.5, "detail": "spike"}]
        out = render_timeline(alerts, color=False)
        assert "ok -> breach" in out and "spike" in out
        assert render_timeline([], color=False).strip() == "(no alerts)"

    def test_cli_renders_file(self, tmp_path, capsys):
        path = str(tmp_path / "h.jsonl")
        with JsonlExporter(path) as out:
            mon = HealthMonitor(clock=FakeClock(), exporter=out)
            mon.add_source("serve", lambda: {"latency": {"count": 9, "p99": 0.1}})
            mon.add_rules(SLORule("p99", "p99_latency_s", 1.0))
            mon.poll_once()
        assert monitor_cli([path, "--no-color"]) == 0
        cap = capsys.readouterr().out
        assert "snapshots: 1" in cap

    def test_cli_demo_covers_all_states(self, capsys):
        assert monitor_cli(["--demo", "--no-color"]) == 0
        out = capsys.readouterr().out
        assert "ok -> warn" in out
        assert "warn -> breach" in out
        assert "[BREACH]" in out and "[OK]" in out
