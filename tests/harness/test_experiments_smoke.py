"""Tiny-scale smoke runs of every experiment harness.

These verify the full regeneration pipelines execute and produce
well-formed reports; the claims they regenerate are asserted in
``test_claims.py``, scientific-scale runs come from the CLI.  Kept under
~2 minutes total.
"""

import numpy as np
import pytest

from repro.harness import EXPERIMENTS, figure4, figure7, memory, scaling, table1, table3, table4, table5


class TestCheapExperiments:
    def test_table3(self):
        rep = table3.run(size="tiny", frames_per_temperature=2)
        assert len(rep.rows) == 8

    def test_memory(self):
        rep = memory.run(measure_blocksize=256)
        assert any("P resident" in str(r[0]) for r in rep.rows)

    def test_scaling(self):
        rep = scaling.run(gpu_counts=(2, 4))
        assert len(rep.rows) == 2
        # FEKF gradient traffic stays ~sub-MB while Naive-EKF P move is GBs
        assert float(rep.rows[0][1]) < 1.0
        assert float(rep.rows[0][3]) > 100.0


class TestTrainingExperiments:
    def test_figure7b_counts_decrease(self):
        rep = figure7.run_7b(batch_size=4, frames_per_temperature=3)
        totals = [row[3] for row in rep.rows]
        assert totals[-1] < totals[0]

    def test_figure7c_rows(self):
        rep = figure7.run_7c(batch_size=4, frames_per_temperature=3)
        assert [row[0] for row in rep.rows] == ["baseline", "opt1", "opt2", "opt3"]

    def test_figure4_smoke(self):
        rep = figure4.run(batch_size=4, epochs=2, frames_per_temperature=4)
        assert [row[0] for row in rep.rows] == ["1", "sqrt(bs)", "bs"]

    def test_table4_smoke(self):
        rep = table4.run(
            systems="Cu", batch_size=4, adam_epochs=2, fekf_epochs=2,
            frames_per_temperature=4,
        )
        assert len(rep.rows) == 1
        assert rep.rows[0][0] == "Cu"

    def test_table1_smoke(self):
        rep = table1.run(
            systems="Cu", batch_sizes=(1, 2, 4), frames_per_temperature=3,
            base_epochs=2, max_epochs_large=4,
        )
        assert rep.rows[0][0] == "Cu"

    def test_figure7a_smoke(self):
        rep = figure7.run_7a(
            systems="Cu", batch_size=4, adam_epochs=2, ekf_epochs=2,
            frames_per_temperature=3,
        )
        assert len(rep.rows) == 1

    def test_table5_smoke(self):
        rep = table5.run(
            configs=((4, 1), (8, 2)), frames_per_temperature=4,
            rlekf_epochs=1, fekf_epochs=2,
        )
        assert len(rep.rows) == 3  # RLEKF + two ladder configs
