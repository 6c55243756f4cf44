from perfbench import adapter
from perfbench.harness import Bench
from perfbench.workloads import common


def test_hand_driven_step_is_bit_identical_to_step_batch():
    """2-frame batches, tiny net: the traced decomposition and
    ``FEKF.step_batch`` end on the same weights and filter."""
    inputs = adapter.cu_inputs(0, 2)
    cfg = adapter.DeePMDConfig(
        embedding_widths=(6, 6, 6), m_less=4, fitting_widths=(8, 8, 8),
        rcut=inputs.rcut, rcut_smooth=0.6 * inputs.rcut, nmax=inputs.nmax,
    )
    model = adapter.new_model(inputs, cfg, 0)
    opt = adapter.FEKF(model, adapter.kalman_config(512), fused_env=True)
    loader = adapter.make_loader(inputs.train, 2, seed=0)
    batches = [b for _, b in loader.iter_batches(cfg, 0)]
    bench = Bench("train_small", 0, 1.0, True, 0.0)
    common.trace_step(bench, opt, model, batches, warm_steps=1)
    assert bench.failed == 0, bench.checks
    assert {c["name"] for c in bench.checks} >= {"trace.hand_step_bit_identical",
                                                 "trace.child_spans_cover_90pct"}
    steps = bench.rec.named("optim.step")
    assert len(steps) == len(batches)
    # 1 energy + 4 force-group updates per step, all children of the step
    updates = [s for s in bench.rec.named("optim.kalman_update") if s.parent == steps[0].id]
    assert len(updates) == 5
    assert bench.values["optim.kalman_share"] < 1.0
    assert bench.values["autograd.kernel_launches_per_step"] > 0
