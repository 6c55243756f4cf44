"""Optimization presets and the Figure 7 profiler."""

import copy
import pickle

import numpy as np
import pytest

from repro.autograd.config import config as ag_config
from repro.model import DeePMD, make_batch
from repro.optim import FEKF, RLEKF, KalmanConfig, KalmanState, NaiveEKF
from repro.optim.kalman import FLUSH_EVERY
from repro.perf import BASELINE, OPT1, PRESET_ORDER, PRESETS, profile_update
from repro.perf.presets import BaselineDeePMD, DenseKalmanState
from repro.telemetry import Tracer, summarize_phases


class TestPresets:
    def test_four_levels_ordered(self):
        assert PRESET_ORDER == ["baseline", "opt1", "opt2", "opt3"]

    def test_monotone_feature_enablement(self):
        flags = [
            (p.model_class is DeePMD, p.fused_layers, p.kalman_class is KalmanState)
            for p in (PRESETS[n] for n in PRESET_ORDER)
        ]
        for a, b in zip(flags, flags[1:]):
            assert all(x <= y for x, y in zip(a, b))

    def test_context_toggles_layer_fusion(self):
        assert not ag_config.fused_elementwise
        with PRESETS["opt2"].context():
            assert ag_config.fused_elementwise
        assert not ag_config.fused_elementwise

    def test_kalman_config_override(self, cu_model):
        opt = PRESETS["opt3"].optimizer(cu_model, blocksize=512, coupled_gain=True)
        assert type(opt.kalman) is KalmanState
        assert opt.kalman.cfg == KalmanConfig(blocksize=512, coupled_gain=True)
        dense = PRESETS["opt1"].optimizer(cu_model, blocksize=512)
        assert type(dense.kalman) is DenseKalmanState
        assert dense.kalman.cfg == KalmanConfig(blocksize=512)

    def test_misspelt_kalman_override_raises(self, cu_model):
        with pytest.raises(TypeError, match="blocksze"):
            PRESETS["opt3"].optimizer(cu_model, blocksze=512)

    def test_model_is_a_baseline_twin(self, cu_model, cu_batch):
        """The baseline model copies the weights, stats and bias and
        changes only the training graph's descriptor kernel."""
        base = BASELINE.model(cu_model)
        assert type(base) is BaselineDeePMD and base is not cu_model
        assert type(cu_model) is DeePMD and OPT1.model(cu_model) is cu_model
        assert BASELINE.model(base) is base and type(OPT1.model(base)) is DeePMD
        assert base.params.flatten().tobytes() == cu_model.params.flatten().tobytes()
        assert base.predict(cu_batch).forces.tobytes() == (
            cu_model.predict(cu_batch).forces.tobytes()
        )

    def test_optimizer_trains_the_preset_model(self, cu_model):
        opt = BASELINE.optimizer(cu_model, RLEKF, seed=5, blocksize=512)
        assert type(opt) is RLEKF and type(opt.model) is BaselineDeePMD
        assert opt.kalman.cfg.blocksize == 512 and type(opt.kalman) is DenseKalmanState

    @pytest.mark.parametrize("cls", [FEKF, RLEKF, NaiveEKF])
    def test_dense_presets_never_build_a_triangle_block(self, monkeypatch, cu_model, cls):
        """A dense preset builds its dense filter directly: no fused
        triangle is mapped, written and thrown away first."""
        built = []
        real = KalmanState._block
        monkeypatch.setattr(KalmanState, "_block",
                            staticmethod(lambda n, src=None: built.append(n) or real(n, src)))
        for preset in (BASELINE, OPT1, PRESETS["opt2"]):
            opt = preset.optimizer(cu_model, cls, blocksize=512)
            assert type(opt) is cls and type(opt.kalman) is DenseKalmanState
        assert built == []
        PRESETS["opt3"].optimizer(cu_model, cls, blocksize=512)
        assert built  # the spy sees the fused filter's blocks

    def test_dense_filter_survives_replicas_and_copies(self, cu_model, cu_batch):
        """Naive-EKF's per-sample replicas, a deep copy and a pickle of a
        dense-preset optimizer all keep the dense filter."""
        opt = OPT1.optimizer(cu_model, NaiveEKF, seed=5, blocksize=512)
        opt.step_batch(cu_batch)
        assert len(opt._replicas) == cu_batch.batch_size
        assert all(type(r) is DenseKalmanState and r.pending == 0 for r in opt._replicas)
        for twin in (copy.deepcopy(opt), pickle.loads(pickle.dumps(opt))):
            assert type(twin.kalman) is DenseKalmanState
            assert all(type(r) is DenseKalmanState for r in twin._replicas)
            assert twin.kalman.checksum() == opt.kalman.checksum()


class TestProfiler:
    @pytest.fixture()
    def profile_pair(self, cu_dataset, small_cfg, cu_model):
        batch = make_batch(cu_dataset, np.arange(4), small_cfg)
        out = {}
        for name in ("baseline", "opt3"):
            preset = PRESETS[name]
            opt = preset.optimizer(cu_model, blocksize=1024)
            out[name] = profile_update(opt.model, opt, batch, preset)
        return out

    def test_kernel_counts_drop(self, profile_pair):
        base, opt3 = profile_pair["baseline"], profile_pair["opt3"]
        assert opt3.energy.total_kernels < base.energy.total_kernels
        assert opt3.force.total_kernels < base.force.total_kernels
        assert opt3.total_iteration_kernels() < base.total_iteration_kernels()

    def test_force_update_costs_more_than_energy(self, profile_pair):
        base = profile_pair["baseline"]
        assert base.force.total_kernels > base.energy.total_kernels

    def test_phase_totals_consistent(self, profile_pair):
        prof = profile_pair["baseline"]
        for phase in (prof.energy, prof.force):
            assert phase.total_s == pytest.approx(
                phase.forward_s + phase.gradient_s + phase.kalman_s
            )
            assert phase.total_kernels == (
                phase.forward_kernels + phase.gradient_kernels + phase.kalman_kernels
            )

    def test_iteration_convention(self, profile_pair):
        prof = profile_pair["baseline"]
        assert prof.total_iteration_kernels(4) == (
            prof.energy.total_kernels + 4 * prof.force.total_kernels
        )


class TestFigure7bKernelCounts:
    """Paper Fig. 7(b) as an executable claim: launches per (1 energy +
    4 force)-update iteration fall with every preset.  Launch counts
    depend on the op sequence only (not on shapes or data), so they are
    pinned exactly; EXPERIMENTS.md quotes the same table."""

    #: preset -> (energy update, force update, iteration)
    PINNED = {
        "baseline": (173, 458, 2005),
        "opt1": (141, 314, 1397),
        "opt2": (69, 292, 1237),
        "opt3": (49, 272, 1137),
    }

    def test_kernel_counts_fall_with_presets(self, cu_dataset, small_cfg, cu_model):
        batch = make_batch(cu_dataset, np.arange(4), small_cfg)
        counts = {}
        for name in PRESET_ORDER:
            preset = PRESETS[name]
            opt = preset.optimizer(cu_model, blocksize=2048)
            prof = profile_update(opt.model, opt, batch, preset)
            counts[name] = (prof.energy.total_kernels, prof.force.total_kernels,
                            prof.total_iteration_kernels())
        assert counts == self.PINNED
        total = {name: c[2] for name, c in counts.items()}
        assert total["baseline"] > total["opt1"] > total["opt2"] > total["opt3"]
        # paper: -64% overall; we require at least -40%
        assert total["opt3"] < 0.6 * total["baseline"]


class TestProfilerReconciliation:
    """Two views of one profiled FEKF step: the phase each op event was
    classified into when it was recorded, and the span-tree Figure 7(b)
    query.  They must agree *exactly*, per preset."""

    @pytest.mark.parametrize("preset_name", ["baseline", "opt1", "opt2", "opt3"])
    def test_phase_counts_match_span_counts(
        self, cu_dataset, small_cfg, cu_model, preset_name
    ):
        batch = make_batch(cu_dataset, np.arange(4), small_cfg)
        # 32 Cu atoms / 4 splits: equal groups, so the 4 force updates are
        # identical and the single-update force profile scales exactly
        assert batch.n_atoms % 4 == 0
        preset = PRESETS[preset_name]
        opt = preset.optimizer(cu_model, blocksize=1024)
        # the caller's tracer adopts the profiled step's op events
        with Tracer(profile=True) as tracer:
            prof = profile_update(opt.model, opt, batch, preset)
        # the profile is the first step of a fresh optimizer (5 Kalman
        # updates); the fused backend's rank-k flush comes every
        # FLUSH_EVERY (> 5) updates, so none lands inside it and the
        # single-update Kalman kernel count scales exactly
        assert opt.kalman.updates == 5 < FLUSH_EVERY
        assert opt.kalman.pending == (5 if preset.kalman_class.fused else 0)
        pk = {
            phase: agg["kernels"]
            for phase, agg in summarize_phases(tracer.profiler.events).items()
        }
        assert pk["forward_energy"] == prof.energy.forward_kernels
        assert pk["forward_force"] == 4 * prof.force.forward_kernels
        assert pk["backward"] == (
            prof.energy.gradient_kernels + 4 * prof.force.gradient_kernels
        )
        assert pk["kf_update"] == (
            prof.energy.kalman_kernels + 4 * prof.force.kalman_kernels
        )
        # nothing escaped phase attribution: the live totals equal the
        # paper's 1-energy + 4-force iteration count
        assert sum(pk.values()) == prof.total_iteration_kernels()
