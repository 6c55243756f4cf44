"""Exporter round-trips: JSONL stream, summarize, table rendering."""

import io
import json

from repro.telemetry import (
    JsonlExporter,
    MetricRegistry,
    Tracer,
    format_table,
    read_jsonl,
    summarize,
)


class TestJsonlRoundTrip:
    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with JsonlExporter(path) as out, Tracer(sinks=[out]) as tr:
            with tr.span("outer", kind="energy") as sp:
                sp.add("updates", 2)
                with tr.span("inner"):
                    pass
        lines = read_jsonl(path)
        assert [l["name"] for l in lines] == ["inner", "outer"]
        outer = lines[1]
        assert outer["type"] == "span"
        assert outer["attrs"] == {"kind": "energy"}
        assert outer["counters"] == {"updates": 2}
        assert lines[0]["parent_id"] == outer["span_id"]
        assert outer["wall_s"] >= 0.0

    def test_stream_target_and_metrics_line(self):
        buf = io.StringIO()
        reg = MetricRegistry()
        reg.counter("optim.steps").inc(4)
        with JsonlExporter(buf) as out, Tracer(sinks=[out]) as tr:
            with tr.span("s"):
                pass
            out.write_metrics(reg)
        lines = [json.loads(l) for l in buf.getvalue().splitlines()]
        assert lines[0]["type"] == "span"
        assert lines[1] == {
            "type": "metrics",
            "data": {
                "counters": {"optim.steps": 4},
                "gauges": {},
                "histograms": {},
            },
        }
        # exporter does not close a stream it does not own
        buf.write("x")

    def test_blank_lines_skipped(self, tmp_path):
        path = str(tmp_path / "gap.jsonl")
        with open(path, "w") as fh:
            fh.write('{"type": "span", "name": "a"}\n\n\n{"type": "span", "name": "b"}\n')
        assert [l["name"] for l in read_jsonl(path)] == ["a", "b"]


class TestSummarize:
    def _events(self):
        with Tracer() as tr:
            for i in range(3):
                with tr.span("fekf.update") as sp:
                    sp.add("kernels", 10 + i)
            with tr.span("train.eval"):
                pass
        return tr.events

    def test_aggregation(self):
        summ = summarize(self._events())
        upd = summ["fekf.update"]
        assert upd["count"] == 3
        assert upd["counters"]["kernels"] == 33
        assert upd["min_wall_s"] <= upd["mean_wall_s"] <= upd["max_wall_s"]
        assert summ["train.eval"]["count"] == 1

    def test_format_table(self):
        text = format_table(summarize(self._events()))
        lines = text.splitlines()
        assert lines[0].split()[:2] == ["span", "count"]
        assert any(l.split()[:2] == ["fekf.update", "3"] for l in lines)
        assert any("train.eval" in l for l in lines)

    def test_empty_summary_renders(self):
        assert "span" in format_table(summarize([]))


class TestReReadFidelity:
    def test_summary_from_reread_file_matches_live(self, tmp_path):
        """JsonlExporter -> read_jsonl -> summarize must agree with the
        live tracer summary, including with non-span lines interleaved."""
        path = str(tmp_path / "run.jsonl")
        reg = MetricRegistry()
        reg.counter("optim.steps").inc(2)
        with JsonlExporter(path) as out, Tracer(sinks=[out]) as tr:
            for i in range(3):
                with tr.span("fekf.update", kind="energy") as sp:
                    sp.add("kernels", 5 + i)
            with tr.span("train.eval"):
                pass
            out.write_metrics(reg)  # a non-span line summarize must skip
        live = summarize(tr.events)
        reread = summarize(read_jsonl(path))
        assert reread == live
        assert reread["fekf.update"]["counters"]["kernels"] == 18
