"""Report rendering and the experiment registry."""

import pytest

from repro.harness import EXPERIMENTS, Report
from repro.harness.common import parse_systems


class TestReport:
    def _report(self):
        r = Report("T", "demo", ["a", "b"])
        r.add_row("x", 1.5)
        r.add_row("long-name", 0.00012)
        r.notes.append("hello")
        return r

    def test_format_table_contains_everything(self):
        text = self._report().format_table()
        assert "T: demo" in text
        assert "long-name" in text
        assert "note: hello" in text

    def test_column_alignment(self):
        lines = self._report().format_table().splitlines()
        header = next(l for l in lines if l.startswith("a"))
        sep = lines[lines.index(header) + 1]
        assert set(sep) == {"-"}

    def test_markdown_table(self):
        md = self._report().markdown()
        assert "| a | b |" in md
        assert "| x | 1.5 |" in md
        assert "> hello" in md

    def test_float_formatting(self):
        r = Report("T", "t", ["v"])
        r.add_row(1234567.0)
        r.add_row(0.00001)
        r.add_row(0.25)
        text = r.format_table()
        assert "1.23e+06" in text
        assert "1e-05" in text
        assert "0.25" in text


class TestRegistry:
    def test_all_experiments_registered(self):
        expected = {
            "table1", "table3", "table4", "table5", "figure1", "figure4",
            "figure7a", "figure7b", "figure7c", "memory", "scaling",
            "scaling_walltime", "ablations", "ablation_lambda_nu",
            "ablation_dataflow", "ablation_force_graph",
        }
        assert set(EXPERIMENTS) == expected

    def test_parse_systems_quick(self):
        assert parse_systems(None) == ("Cu",)
        assert parse_systems("quick") == ("Cu",)

    def test_parse_systems_all(self):
        assert len(parse_systems("all")) == 8

    def test_parse_systems_list(self):
        assert parse_systems("Cu, Al") == ["Cu", "Al"]

    def test_parse_systems_unknown(self):
        with pytest.raises(KeyError):
            parse_systems("Xx")
