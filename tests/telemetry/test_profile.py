"""Op-level profiler: timelines, phase attribution, FLOPs, Chrome traces."""

import json
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.autograd import Tensor, ops
from repro.autograd import instrument as _instrument
from repro.telemetry import (
    OpEvent,
    Tracer,
    format_ops_table,
    summarize_ops,
    summarize_phases,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.telemetry.profile import classify_phase, estimate_flops


@dataclass
class _FakeSpan:
    name: str
    attrs: dict = field(default_factory=dict)


class TestClassifyPhase:
    def test_empty_stack_untracked(self):
        assert classify_phase([]) == "untracked"

    def test_gradient_is_backward(self):
        stack = [_FakeSpan("fekf.update", {"kind": "energy"}), _FakeSpan("fekf.gradient")]
        assert classify_phase(stack) == "backward"

    def test_kalman_flavours(self):
        assert classify_phase([_FakeSpan("fekf.kalman")]) == "kf_update"
        force = {"kind": "force", "groups": 4}
        assert classify_phase([_FakeSpan("fekf.kalman", force)]) == "kf_update"

    def test_comm_is_reduce(self):
        assert classify_phase([_FakeSpan("parallel.comm", {"kind": "energy"})]) == "reduce"

    def test_forward_by_update_kind(self):
        energy = [_FakeSpan("fekf.update", {"kind": "energy"}), _FakeSpan("fekf.forward")]
        force = [_FakeSpan("fekf.update", {"kind": "force"}), _FakeSpan("fekf.forward")]
        assert classify_phase(energy) == "forward_energy"
        assert classify_phase(force) == "forward_force"

    def test_bare_forward_is_force_graph(self):
        assert classify_phase([_FakeSpan("fekf.forward")]) == "force_graph"

    def test_worker_task_kind(self):
        worker_e = [
            _FakeSpan("worker.task", {"method": "energy_task", "kind": "energy"}),
            _FakeSpan("fekf.forward"),
        ]
        worker_g = [
            _FakeSpan("worker.task", {"method": "force_task"}),
            _FakeSpan("fekf.forward"),
        ]
        worker_f = worker_g[:1] + [
            _FakeSpan("fekf.update", {"kind": "force", "group": 0}),
            _FakeSpan("fekf.forward"),
        ]
        assert classify_phase(worker_e) == "forward_energy"
        assert classify_phase(worker_g) == "force_graph"
        assert classify_phase(worker_f) == "forward_force"

    def test_other_span_passes_through(self):
        assert classify_phase([_FakeSpan("train.eval")]) == "train.eval"


class TestEstimateFlops:
    def test_matmul_2mkn(self):
        assert estimate_flops("matmul", (4, 8), ((4, 16), (16, 8))) == 2 * 16 * 32

    def test_elementwise_one_per_element(self):
        assert estimate_flops("add", (10,), ((10,), (10,))) == 10

    def test_transcendental_budget(self):
        assert estimate_flops("tanh", (10,), ((10,),)) == 80

    def test_movement_free(self):
        assert estimate_flops("reshape", (4, 4), ((16,),)) == 0.0

    def test_reduction_counts_inputs(self):
        assert estimate_flops("sum", (), ((5, 7),)) == 35

    def test_unknown_shape_is_zero(self):
        assert estimate_flops("p_update_fused", None, None) == 0.0

    def test_kalman_closed_forms(self):
        n, k = 64, 7
        # P_eff g: symv (2n^2) + pending correction U(beta * U^T g) (4nk)
        assert estimate_flops("p_symv_fused", (n,), ((n, n), (n, k))) == (
            2 * n * n + 4 * n * k
        )
        assert estimate_flops("p_symv_fused", (n,), ((n, n), (n, 0))) == 2 * n * n
        # a batched pass over m columns: m products and m corrections
        for m in (2, 3, 4):
            assert estimate_flops("p_symv_fused", (n, m), ((n, n), (n, k))) == (
                2 * m * n * n + 4 * m * n * k
            )
        # rank-k flush: one multiply-add per triangle element per pair
        assert estimate_flops("p_update_fused", (n, n), ((n, k),)) == k * n * n + k * n


class TestOpEventRoundTrip:
    def test_as_dict_from_dict(self):
        ev = OpEvent(
            name="matmul", t_start=0.5, dur_s=0.001, nbytes=256, flops=1024.0,
            span="fekf.forward", phase="forward_energy", span_id=3, rank=1, pid=42,
        )
        d = ev.as_dict()
        assert d["type"] == "op"
        assert OpEvent.from_dict(json.loads(json.dumps(d))) == ev


class TestProfilerRecording:
    def test_ops_recorded_with_span_attribution(self):
        with Tracer(profile=True) as tr:
            x = Tensor(np.ones((4, 4)))
            with tr.span("fekf.update", kind="energy"):
                with tr.span("fekf.forward"):
                    ops.matmul(x, x)
        events = tr.profiler.events
        assert [e.name for e in events] == ["matmul"]
        ev = events[0]
        assert ev.span == "fekf.forward"
        assert ev.phase == "forward_energy"
        assert ev.nbytes == 128
        assert ev.flops == 2 * 4 * 16
        assert ev.dur_s >= 0.0 and ev.t_start >= 0.0
        assert ev.rank is None

    def test_timeline_is_ordered(self):
        with Tracer(profile=True) as tr:
            x = Tensor(np.ones(16))
            with tr.span("s"):
                for _ in range(5):
                    ops.add(x, x)
        starts = [e.t_start for e in tr.profiler.events]
        assert starts == sorted(starts)

    def test_no_recording_outside_scope(self):
        tr = Tracer(profile=True)
        x = Tensor(np.ones(4))
        ops.add(x, x)  # tracer not installed
        assert tr.profiler.events == []
        assert not _instrument.shapes_wanted()

    def test_shape_gate_restored_after_scope(self):
        with Tracer(profile=True):
            assert _instrument.shapes_wanted()
        assert not _instrument.shapes_wanted()

    def test_nested_tracer_owns_the_ops(self):
        """A worker's nested profiling tracer records; the outer one
        stays silent (no double counting under SerialExecutor)."""
        x = Tensor(np.ones(4))
        with Tracer(profile=True) as outer:
            with Tracer(profile=True) as inner:
                ops.add(x, x)
        assert len(inner.profiler.events) == 1
        assert outer.profiler.events == []

    def test_max_events_cap(self):
        with Tracer(profile=True) as tr:
            tr.profiler.max_events = 3
            x = Tensor(np.ones(2))
            for _ in range(5):
                ops.add(x, x)
        assert len(tr.profiler.events) == 3
        assert tr.profiler.dropped == 2

    def test_emit_foreign_tags_rank_and_pid(self):
        with Tracer(profile=True) as tr:
            pass
        payload = [
            OpEvent(name="matmul", t_start=0.0, dur_s=0.1, nbytes=8, flops=2.0,
                    span="fekf.forward", phase="forward_energy", span_id=7).as_dict()
        ]
        tr.profiler.emit_foreign(payload, rank=1, pid=999)
        (ev,) = tr.profiler.events
        assert (ev.rank, ev.pid) == (1, 999)
        assert ev.span_id is None  # foreign ids are meaningless here


class TestSummaries:
    def _events(self):
        with Tracer(profile=True) as tr:
            x = Tensor(np.ones((8, 8)))
            with tr.span("fekf.update", kind="energy"):
                with tr.span("fekf.forward"):
                    ops.matmul(x, x)
                    ops.tanh(x)
                with tr.span("fekf.gradient"):
                    ops.add(x, x)
        return tr

    def test_phase_kernel_counts(self):
        summary = self._events().profiler.phase_summary()
        assert {p: agg["kernels"] for p, agg in summary.items()} == {
            "forward_energy": 2, "backward": 1,
        }

    def test_phase_summary_fields(self):
        summary = self._events().profiler.phase_summary()
        fwd = summary["forward_energy"]
        assert fwd["kernels"] == 2
        assert fwd["bytes"] == 2 * 8 * 8 * 8
        assert fwd["flops"] > 0 and fwd["wall_s"] >= 0.0

    def test_summarize_phases_accepts_dicts(self):
        tr = self._events()
        as_dicts = [e.as_dict() for e in tr.profiler.events]
        assert summarize_phases(as_dicts) == tr.profiler.phase_summary()

    def test_ops_table_renders(self):
        tr = self._events()
        table = format_ops_table(tr.profiler.events, top=2)
        lines = table.splitlines()
        assert lines[0].split()[:2] == ["op", "launches"]
        assert len(lines) == 4  # header, rule, two rows
        summary = summarize_ops(tr.profiler.events)
        assert summary["matmul"]["count"] == 1


class TestChromeTrace:
    def _traced(self):
        with Tracer(profile=True) as tr:
            x = Tensor(np.ones(8))
            with tr.span("train.step", step=0):
                ops.add(x, x)
        return tr

    def test_export_and_validate(self):
        tr = self._traced()
        trace = tr.chrome_trace()
        report = validate_chrome_trace(trace)
        assert report["pids"] == [1]
        assert report["rank_tracks"] == []
        names = {e["name"] for e in trace["traceEvents"]}
        assert {"process_name", "thread_name", "train.step", "add"} <= names
        # spans on tid 0, ops on tid 1
        tids = {e["name"]: e["tid"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert tids["train.step"] == 0 and tids["add"] == 1

    def test_rank_tracks_from_foreign_ops(self):
        tr = self._traced()
        for rank, pid in ((0, 100), (1, 101)):
            tr.profiler.emit_foreign(
                [OpEvent(name="mul", t_start=0.0, dur_s=0.1, nbytes=8,
                         flops=1.0).as_dict()],
                rank=rank, pid=pid,
            )
        report = validate_chrome_trace(tr.chrome_trace())
        assert report["rank_tracks"] == ["rank 0 (pid 100)", "rank 1 (pid 101)"]
        assert len(report["pids"]) == 3

    def test_write_is_loadable_json(self, tmp_path):
        tr = self._traced()
        path = str(tmp_path / "trace.json")
        write_chrome_trace(path, tracer=tr)
        assert validate_chrome_trace(json.load(open(path)))["events"] > 0

    def test_validate_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"foo": 1})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": []})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"name": "x"}]})
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [
                    {"name": "x", "ph": "X", "pid": 1, "tid": 0, "ts": "soon"}
                ]}
            )
