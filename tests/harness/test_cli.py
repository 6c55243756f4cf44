"""The python -m repro.harness command-line interface."""

import pytest

from repro.harness.__main__ import main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "figure7b" in out

    def test_unknown_experiment(self, capsys):
        assert main(["nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_runs_cheap_experiment(self, capsys):
        assert main(["scaling"]) == 0
        out = capsys.readouterr().out
        assert "Sec 5.3 scaling" in out
        assert "completed in" in out

    def test_markdown_flag(self, capsys):
        assert main(["table3", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert "| System |" in out

    def test_frames_override_forwarded(self, capsys):
        assert main(["table3", "--frames", "7"]) == 0
        out = capsys.readouterr().out
        assert "21" in out  # 7 frames x 3 temperatures for Cu


class TestTraceOut:
    # figure7b profiles under its own scoped tracer, which must hand its
    # spans and ops to the --trace-out tracer
    @pytest.mark.parametrize("experiment", ["ablation_force_graph", "figure7b"])
    def test_trace_out_flag_writes_bundle(self, tmp_path, capsys, experiment):
        """A cheap training experiment under --trace-out: the per-phase
        op table and hottest ops are printed, and the Chrome trace + span
        JSONL land next to each other."""
        import json

        from repro.telemetry import validate_chrome_trace

        trace_path = tmp_path / "trace.json"
        assert main([
            experiment, "--frames", "8", "--trace-out", str(trace_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "op-level profile by phase" in out
        for phase in ("forward_energy", "backward", "kf_update"):
            assert phase in out
        assert "launches" in out  # the hottest-ops table
        assert "trace written to" in out
        report = validate_chrome_trace(json.loads(trace_path.read_text()))
        assert report["events"] > 0
        jsonl = tmp_path / "trace.spans.jsonl"
        lines = [json.loads(l) for l in jsonl.read_text().splitlines() if l]
        assert any(
            l.get("type") == "span" and l.get("name") == "harness.experiment"
            for l in lines
        )
        assert lines[-1]["type"] == "metrics"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "trace.json", "trace.spans.jsonl",
        ]
