"""Full-size (paper) network end-to-end smoke.

Everything else in the suite runs the scaled-down network; this file
exercises the exact paper architecture -- embedding [25,25,25], M<=16,
fitting [400,50,50,50,1], blocksize 10240 -- through one full FEKF step
and a prediction, so nothing silently assumes the small sizes.
"""

import mmap

import numpy as np
import pytest

from repro.model import DeePMD, DeePMDConfig, make_batch
from repro.optim import FEKF, KalmanConfig
from repro.optim.blocks import block_shapes


@pytest.fixture(scope="module")
def paper_model(cu_dataset):
    cfg = DeePMDConfig.paper(rcut=3.5, nmax=16)
    return DeePMD.for_dataset(cu_dataset, cfg, seed=1), cfg


class TestPaperNetwork:
    def test_parameter_count(self, paper_model):
        model, _ = paper_model
        assert model.num_params == 26551  # paper reports 26651

    def test_block_structure_at_paper_blocksize(self, paper_model, resident_bytes):
        model, _ = paper_model
        opt = FEKF(model, KalmanConfig(blocksize=10240))
        shapes = block_shapes(opt.kalman.blocks)
        assert shapes == [1350, 10240, 9810, 5151]
        # the paper's Sec. 5.3 accounting: the logical bytes of the square
        # blocks, ~1.84 GB at the paper's blocksize
        assert opt.kalman.p_memory_bytes() / 1e6 == pytest.approx(1836, rel=0.02)
        # resident: the upper triangles only, ~918 MB (+ <= a page a column)
        tri = sum(n * (n + 1) // 2 * 8 for n in shapes)
        assert tri / 1e6 == pytest.approx(918, rel=0.01)
        own = sum(resident_bytes(p) for p in opt.kalman.p_mats)
        assert tri <= own <= tri + sum(shapes) * mmap.PAGESIZE

    def test_prediction_and_forces(self, paper_model, cu_dataset):
        model, cfg = paper_model
        batch = make_batch(cu_dataset, np.arange(2), cfg)
        out = model.predict(batch)
        assert np.all(np.isfinite(out.energy))
        assert np.allclose(out.forces.sum(axis=1), 0.0, atol=1e-8)

    def test_one_fekf_step_with_paper_blocks(self, paper_model, cu_dataset):
        """One full (1 energy + 4 force) update against the 10240-block P.

        Uses the fused kernel; the naive kernel at this size needs ~10 GB/s
        of temporaries and is exercised at smaller blocks elsewhere.
        """
        model, cfg = paper_model
        opt = FEKF(
            model, KalmanConfig(blocksize=10240)
        )
        batch = make_batch(cu_dataset, np.arange(2), cfg)
        before = model.params.flatten()
        stats = opt.step_batch(batch)
        assert stats["updates"] == 5
        assert not np.allclose(before, model.params.flatten())
