"""DeePMDCalculator: the NNMD inference adapter."""

import numpy as np
import pytest

from repro.model import DeePMD, make_batch
from repro.model.calculator import DeePMDCalculator
from repro.perf import BASELINE


@pytest.fixture()
def calc(cu_model, cu_dataset):
    return DeePMDCalculator(cu_model, cu_dataset.species)


class TestCalculator:
    def test_matches_batched_prediction(self, calc, cu_model, cu_dataset, small_cfg):
        pos = cu_dataset.positions[2]
        e, f = calc.energy_forces(pos, cu_dataset.cell)
        batch = make_batch(cu_dataset, np.array([2]), small_cfg)
        ref = cu_model.predict(batch)
        assert e == pytest.approx(float(ref.energy[0]), rel=1e-12)
        assert np.allclose(f, ref.forces[0], atol=1e-12)

    def test_forces_consistent_with_energy(self, calc, cu_dataset):
        pos = cu_dataset.positions[0]
        cell = cu_dataset.cell
        _, f = calc.energy_forces(pos, cell)
        eps = 1e-5
        for (i, d) in [(3, 0), (17, 2)]:
            p = pos.copy(); p[i, d] += eps
            ep = calc.energy(p, cell)
            p = pos.copy(); p[i, d] -= eps
            em = calc.energy(p, cell)
            assert f[i, d] == pytest.approx(-(ep - em) / (2 * eps), abs=5e-5)

    def test_graph_and_fused_paths_agree(
        self, cu_model, cu_dataset, small_cfg, graph_predict
    ):
        """The calculator's Opt1 forces agree with the baseline's graph
        to round-off, not bit for bit."""
        calc = DeePMDCalculator(cu_model, cu_dataset.species)
        ea, fa = calc.energy_forces(cu_dataset.positions[1], cu_dataset.cell)
        batch = make_batch(cu_dataset, np.array([1]), small_cfg)
        ref = graph_predict(BASELINE.model(cu_model), batch)
        assert ea == pytest.approx(float(ref.energy[0]), rel=1e-12)
        assert np.allclose(fa, ref.forces[0], atol=1e-12)

    def test_translation_invariant(self, calc, cu_dataset):
        pos = cu_dataset.positions[0]
        cell = cu_dataset.cell
        e0 = calc.energy(pos, cell)
        e1 = calc.energy(cell.wrap(pos + 1.234), cell)
        assert e0 == pytest.approx(e1, abs=1e-9)

    def test_potential_interface(self, calc, cu_dataset):
        pos = cu_dataset.positions[0]
        cell = cu_dataset.cell
        assert calc.energy(pos, cell) == pytest.approx(calc.energy_forces(pos, cell)[0])
        assert calc.forces(pos, cell).shape == pos.shape
