"""Figure 7(c) bench -- iteration time per preset.

Benchmarks the (1 energy + 4 force)-update iteration under each
optimization preset.  The Figure 7(b) kernel-count claim is a tier-1
assertion (``tests/perf/test_presets_timer.py::TestFigure7bKernelCounts``).
"""

import numpy as np
import pytest

from repro.model import make_batch
from repro.optim import FEKF
from repro.perf import PRESETS


@pytest.fixture(scope="module")
def batch64(cu_data, cfg):
    idx = np.arange(min(64, cu_data.n_frames))
    return make_batch(cu_data, idx, cfg)


@pytest.mark.parametrize("preset_name", ["baseline", "opt1", "opt2", "opt3"])
def test_iteration_time_per_preset(benchmark, model, batch64, preset_name):
    preset = PRESETS[preset_name]
    opt = FEKF(model, preset.kalman_config(blocksize=2048), fused_env=preset.fused_env)

    def iteration():
        with preset.context():
            return opt.step_batch(batch64)

    stats = benchmark(iteration)
    assert stats["updates"] > 0
