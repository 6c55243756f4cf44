"""The ``python -m repro.analysis`` CLI: exit codes, rendering, JSON,
and the manifest side-channel."""

import json
from pathlib import Path

import pytest

from repro.analysis.__main__ import main

FIXTURES = Path(__file__).parent / "fixtures"
REPRO_SRC = Path(__file__).parent.parent.parent / "src" / "repro"


class TestLintCommand:
    def test_repo_lints_clean(self, capsys):
        assert main(["lint", str(REPRO_SRC)]) == 0
        out = capsys.readouterr().out
        assert "0 errors" in out

    def test_default_target_is_the_package(self, capsys):
        assert main(["lint"]) == 0

    def test_violation_fixture_fails_with_location(self, capsys):
        path = FIXTURES / "ast" / "wallclock_violation.py"
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "wallclock_violation.py:" in out
        assert "[wallclock-time]" in out

    def test_json_output(self, capsys):
        path = FIXTURES / "ast" / "unseeded_random_violation.py"
        assert main(["lint", "--json", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "astlint"
        assert payload["ok"] is False
        assert all(f["rule"] == "unseeded-random" for f in payload["findings"])


class TestGraphCommand:
    def test_clean_fixture_passes(self, capsys):
        assert main(["graph", str(FIXTURES / "graph" / "clean_graph.py")]) == 0

    @pytest.mark.parametrize("name,rule", [
        ("dtype_violation.py", "dtype-invariant"),
        ("backward_shape_violation.py", "backward-shape"),
        ("needs_violation.py", "backward-shape"),
        ("alias_violation.py", "alias-hazard"),
        ("mutation_violation.py", "buffer-mutation"),
        ("unreachable_violation.py", "unreachable-node"),
        ("unregistered_op_violation.py", "unregistered-op"),
    ])
    def test_each_check_fires(self, capsys, name, rule):
        assert main(["graph", str(FIXTURES / "graph" / name)]) == 1
        out = capsys.readouterr().out
        assert f"[{rule}]" in out

    def test_second_order_gate_is_opt_in(self, capsys):
        path = str(FIXTURES / "graph" / "second_order_violation.py")
        assert main(["graph", path]) == 0
        assert main(["graph", "--second-order", path]) == 1
        assert "[second-order-unsafe]" in capsys.readouterr().out

    def test_sanitizer_gate_is_opt_in(self, capsys):
        path = str(FIXTURES / "graph" / "nonfinite_violation.py")
        assert main(["graph", path]) == 0
        assert main(["graph", "--sanitize", path]) == 1
        out = capsys.readouterr().out
        assert "[non-finite]" in out and "'log'" in out

    def test_unloadable_fixture_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.py"
        assert main(["graph", str(missing)]) == 2
        no_build = tmp_path / "nobuild.py"
        no_build.write_text("x = 1\n")
        assert main(["graph", str(no_build)]) == 2


class TestDeterminismCommand:
    def test_two_backend_audit_json(self, capsys):
        rc = main([
            "determinism", "--world-size", "2", "--steps", "2",
            "--backends", "serial,thread", "--json",
        ])
        assert rc == 0
        audit = json.loads(capsys.readouterr().out)
        assert audit["ok"] is True
        assert audit["findings"] == []
        assert audit["metrics"]["backends"] == "serial,thread"
        assert audit["metrics"]["fingerprints_compared"] == 2
        assert audit["metrics"]["final_fingerprint"]
        assert "blas_threads" in audit["metrics"]

    def test_unknown_backend_is_usage_error(self, capsys):
        assert main(["determinism", "--backends", "gpu"]) == 2
