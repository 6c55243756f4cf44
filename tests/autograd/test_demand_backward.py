"""The demand-driven reverse sweep: liveness, ``needs`` flags, release.

``grad(output, inputs)`` sweeps only the nodes between ``output`` and the
requested ``inputs``, tells every closure which parent gradients it wants,
and drops each cotangent once its node has run.  None of that may change a
single bit of any gradient that *was* asked for.
"""

import hashlib
import itertools
import sys
import time
import weakref

import numpy as np
import pytest

from repro.autograd import KernelCounter, Tensor, fuse, grad, make_op, ops
from repro.autograd.config import config as ag_config
from repro.autograd.instrument import registered_ops
from repro.model import DeePMD, make_batch
from repro.model import environment as envmod
from repro.optim import FEKF, KalmanConfig
from repro.parallel.executor import ThreadExecutor
from repro.perf import BASELINE, OPT1

#: snapshot at collection time: other test modules register throwaway op
#: names while they *run*, and those are not the engine's
ENGINE_OPS = {
    name for name, info in registered_ops().items()
    if info.kind in ("primitive", "fused")
}


def _rng(tag: str) -> np.random.Generator:
    return np.random.default_rng(int(hashlib.sha256(tag.encode()).hexdigest()[:8], 16))


def _bit_equal(a: Tensor, b: Tensor) -> bool:
    return a.shape == b.shape and a.data.tobytes() == b.data.tobytes()


def _subsets(n: int):
    for k in range(1, n + 1):
        yield from itertools.combinations(range(n), k)


# ---------------------------------------------------------------------------
# one case per differentiable op: (fn(*tensors) -> Tensor, input arrays)
# ---------------------------------------------------------------------------
def _unary(op, positive=False):
    """``op(a * s)``: the scale ``s`` is a second graph input, so even a
    one-parent op is swept under three different demands."""
    def build(rng, _env):
        a = rng.uniform(0.5, 2.0, (2, 3)) if positive else rng.normal(size=(2, 3))
        return (lambda a, s: op(ops.mul(a, s))), [a, np.array([1.3])]
    return build


def _binary(op, positive=False):
    def build(rng, _env):
        draw = (lambda s: rng.uniform(0.5, 2.0, s)) if positive else (
            lambda s: rng.normal(size=s))
        return op, [draw((2, 3)), draw((3,))]  # b broadcasts: unbroadcast runs
    return build


def _layer(op):
    def build(rng, _env):
        return op, [rng.normal(size=(2, 5, 4)), rng.normal(size=(4, 4)),
                    rng.normal(size=(4,))]
    return build


def _env_fused(rng, env):
    batch, cfg, stats = env
    fn = lambda c, w: ops.mul(envmod.environment_fused(c, batch, cfg, stats), w)  # noqa: E731
    return fn, [batch.coords.copy(), rng.normal(size=(4,))]


def _env_linear(which):
    def build(rng, env):
        batch, cfg, stats = env
        rn, inter = envmod.environment_np(batch.coords, batch, cfg, stats)
        op = envmod._make_env_linear_ops(inter, batch, stats)[which]
        shape = rn.shape if which == 0 else batch.coords.shape
        return (lambda g, s: op(ops.mul(g, s))), [rng.normal(size=shape),
                                                  np.array([0.7])]
    return build


CASES = {
    "add": _binary(ops.add),
    "sub": _binary(ops.sub),
    "mul": _binary(ops.mul),
    "div": _binary(ops.div, positive=True),
    "maximum": _binary(ops.maximum),
    "minimum": _binary(ops.minimum),
    "matmul": lambda rng, _e: (
        ops.matmul, [rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 2))]),
    "where": lambda rng, _e: (
        lambda a, b: ops.where(np.array([[True, False, True]] * 2), a, b),
        [rng.normal(size=(2, 3)), rng.normal(size=(3,))]),
    "concat": lambda rng, _e: (
        lambda a, b, c: ops.concat([a, b, c], axis=1),
        [rng.normal(size=(2, 1)), rng.normal(size=(2, 3)), rng.normal(size=(2, 2))]),
    "cmp_mask": lambda rng, _e: (
        lambda a, b: ops.add(ops.mul(a, ops._cmp_mask(a, b, "ge")), b),
        [rng.normal(size=(2, 3)), rng.normal(size=(2, 3))]),
    "neg": _unary(ops.neg),
    "pow": _unary(lambda a: ops.power(a, 3.0), positive=True),
    "exp": _unary(ops.exp),
    "log": _unary(ops.log, positive=True),
    "tanh": _unary(ops.tanh),
    "sqrt": _unary(ops.sqrt, positive=True),
    "abs": _unary(ops.absolute),
    "sign": _unary(lambda a: ops.mul(a, ops.sign_of(a))),
    "sum": _unary(lambda a: ops.tsum(a, axis=1)),
    "broadcast": _unary(lambda a: ops.broadcast_to(a, (4, 2, 3))),
    "reshape": _unary(lambda a: ops.reshape(a, (3, 2))),
    "transpose": _unary(lambda a: ops.transpose(a, (1, 0))),
    "gather": _unary(lambda a: ops.index(a, (slice(None), np.array([2, 0, 2])))),
    "scatter_add": _unary(
        lambda a: ops.index_add((5,), np.array([4, 0, 4]), ops.index(a, 0))),
    "linear_fused": _layer(fuse.linear_fused),
    "linear_tanh_fused": _layer(fuse.linear_tanh_fused),
    "residual_linear_tanh_fused": _layer(fuse.residual_linear_tanh_fused),
    "env_fused": _env_fused,
    "env_bwd_fused": _env_linear(0),
    "env_bwd_transpose_fused": _env_linear(1),
}


@pytest.fixture(scope="module")
def env(cu_dataset, tiny_cfg):
    batch = make_batch(cu_dataset, np.arange(2), tiny_cfg)
    return batch, tiny_cfg, DeePMD.for_dataset(cu_dataset, tiny_cfg, seed=1).stats


class TestSubsetsMatchFullSweep:
    def test_every_differentiable_op_has_a_case(self):
        assert ENGINE_OPS == set(CASES)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bit_identical_for_every_subset(self, name, env):
        rng = _rng(name)
        fn, arrays = CASES[name](rng, env)
        with KernelCounter() as kc:
            xs = [Tensor(a, requires_grad=True) for a in arrays]
            out = fn(*xs)
            # out*out makes every cotangent depend on the inputs, so the
            # second sweep runs through each closure's own graph
            y = ops.tsum(ops.mul(ops.mul(out, out), rng.normal(size=out.shape)))
            vs = [Tensor(rng.normal(size=a.shape)) for a in arrays]
            full = grad(y, xs)
            full_cg = grad(y, xs, create_graph=True)
            for f, c in zip(full, full_cg):
                assert _bit_equal(f, c)
            for subset in _subsets(len(xs)):
                picked = [xs[i] for i in subset]
                for i, g in zip(subset, grad(y, picked)):
                    assert _bit_equal(g, full[i]), (name, subset, i)
                sub_cg = grad(y, picked, create_graph=True)
                for i, g in zip(subset, sub_cg):
                    assert _bit_equal(g, full[i]), (name, subset, i)
                # differentiate the pruned first sweep again
                z_sub = sum(ops.tsum(ops.mul(g, vs[i])) for i, g in zip(subset, sub_cg))
                z_ref = sum(ops.tsum(ops.mul(full_cg[i], vs[i])) for i in subset)
                assert z_sub.requires_grad == z_ref.requires_grad
                if not z_ref.requires_grad:
                    continue
                ref2 = grad(z_ref, xs)
                for i, g in enumerate(grad(z_sub, xs)):
                    assert _bit_equal(g, ref2[i]), (name, subset, i)
                for subset2 in _subsets(len(xs)):
                    got2 = grad(z_ref, [xs[i] for i in subset2])
                    for i, g in zip(subset2, got2):
                        assert _bit_equal(g, ref2[i]), (name, subset, subset2, i)
        assert kc.launches[name] > 0, f"case {name!r} never launched its op"


# ---------------------------------------------------------------------------
# release: a cotangent lives until its node's closure has run, no longer
# ---------------------------------------------------------------------------
def _spy(x: Tensor, seen: list, alive_at_entry: list) -> Tensor:
    """Identity-like op whose closure notes which earlier cotangents are
    still alive, then remembers (weakly) the one it was handed."""
    def backward(g, needs):
        alive_at_entry.append([r() is not None for r in seen])
        seen.append(weakref.ref(g.data))
        return (Tensor(g.data * 1.0),)

    return make_op(x.data * 1.0, (x,), backward, "test_spy")


class TestRelease:
    def test_interior_cotangent_is_dead_before_the_sweep_ends(self):
        seen, alive = [], []
        x = Tensor(np.array([0.3, -0.2, 0.9]), requires_grad=True)
        early = _spy(ops.mul(x, 2.0), seen, alive)
        late = _spy(ops.tanh(early), seen, alive)
        (gx,) = grad(ops.tsum(ops.mul(late, late)), [x])
        # the sweep reached ``late`` first; by the time it ran ``early``
        # (one node further down) the cotangent of ``late`` was gone
        assert alive == [[], [False]]
        assert all(r() is None for r in seen)
        t = np.tanh(2.0 * x.data)
        assert np.allclose(gx.data, 2.0 * t * (1.0 - t * t) * 2.0)

    def test_requested_interior_and_leaf_gradients_survive(self):
        x = Tensor(np.array([0.5, 1.5]), requires_grad=True)
        h = ops.mul(x, 3.0)
        y = ops.tsum(ops.mul(h, h))
        gh, gx = grad(y, [h, x])
        assert np.array_equal(gh.data, 2.0 * h.data)
        assert np.array_equal(gx.data, 18.0 * x.data)
        (gh_only,) = grad(y, [h])  # nothing below h runs, h's cotangent is kept
        assert _bit_equal(gh_only, gh)

    def test_sweep_stops_at_a_requested_interior_node(self):
        x = Tensor(np.ones(3), requires_grad=True)
        h = ops.exp(x)
        y = ops.tsum(ops.mul(h, h))
        with KernelCounter() as kc:
            grad(y, [h])
        with KernelCounter() as kc_x:
            grad(y, [x])
        assert kc.total_launches < kc_x.total_launches

    def test_backward_fills_only_leaf_grad(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        w = Tensor(np.array([0.5, 0.25]), requires_grad=True)
        h = ops.mul(x, w)
        ops.tsum(ops.mul(h, h)).backward()
        assert h.grad is None
        assert np.array_equal(x.grad.data, 2.0 * h.data * w.data)
        assert np.array_equal(w.grad.data, 2.0 * h.data * x.data)


# ---------------------------------------------------------------------------
# ``needs`` travels as an argument: concurrent sweeps over one graph
# ---------------------------------------------------------------------------
class _SweepRank:
    """Executor worker: sweeps a shared graph for its own inputs."""

    tasks = ("sweep",)
    span = "test.sweep"
    compute_tasks: dict = {}
    counter = "test.sweeps"

    def __init__(self, rank: int):
        self.rank = rank

    def sweep(self, y, wanted, repeats):
        return [[g.data for g in grad(y, wanted)] for _ in range(repeats)]


class _SweepSpec:
    def build(self, rank: int) -> _SweepRank:
        return _SweepRank(rank)


def _yielding_mul(a: Tensor, b: Tensor) -> Tensor:
    """``a * b`` whose closure hands the GIL over before it looks at
    ``needs``: were the flags carried in state shared between threads,
    the other rank's sweep would have overwritten them by then."""
    def backward(g, needs):
        time.sleep(0.001)
        ga = ops.mul(g, b) if needs[0] else None
        gb = ops.mul(g, a) if needs[1] else None
        return ga, gb

    return make_op(a.data * b.data, (a, b), backward, "test_yielding_mul")


def test_concurrent_sweeps_over_one_graph_match_serial():
    rng = _rng("threads")
    a, b, W = (Tensor(rng.normal(size=s), requires_grad=True)
               for s in ((6, 4), (6, 4), (4, 4)))
    h = fuse.residual_linear_tanh_fused(_yielding_mul(ops.exp(a), ops.tanh(b)), W, b[0])
    y = ops.tsum(ops.mul(ops.matmul(h, W), ops.maximum(a, b)))
    wanted = [[a], [b, W], [W]]  # the ranks disagree on every node's needs
    serial = [[g.data for g in grad(y, w)] for w in wanted]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the ranks inside closures too
    try:
        with ThreadExecutor(len(wanted)) as ex:
            ex.start(_SweepSpec())
            results = ex.submit([("sweep", (y, w, 20)) for w in wanted])
    finally:
        sys.setswitchinterval(interval)
    for expect, res in zip(serial, results):
        for got in res.payload:
            assert len(got) == len(expect)
            assert all(np.array_equal(g, e) for g, e in zip(got, expect))


# ---------------------------------------------------------------------------
# end to end: training fingerprints and the inference sweep
# ---------------------------------------------------------------------------
#: recorded on the parent commit (unpruned sweep) with this file's recipe
#: (True: Opt1, False: the Figure 7 baseline's graph descriptor); the
#: demand-driven sweep reorders no arithmetic, so they must not move
PINNED = {
    True: ("b38404fb5d79da2a99b7dfebc8cec04681cad5bc9c79a66e4a0d0040fbdeaed1",
           5235.86308982611),
    False: ("85f8006ae2c749604bde703c48da5472e5dd9dd45106c5e7b5ed50fafea2570c",
            5235.86308982611),
}


@pytest.mark.parametrize("opt1", [True, False])
def test_three_fekf_steps_keep_the_parent_fingerprint(cu_dataset, small_cfg, opt1):
    model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
    # the fused P update on both models (the baseline preset's own
    # optimizer would install its dense one and move the hash)
    twin = (OPT1 if opt1 else BASELINE).model(model)
    opt = FEKF(twin, KalmanConfig(blocksize=1024), seed=11)
    for i in range(3):
        opt.step_batch(make_batch(cu_dataset, np.arange(3) + 3 * i, small_cfg))
    sha = hashlib.sha256(opt.model.params.flatten().tobytes()).hexdigest()
    assert (sha, opt.kalman.checksum()) == PINNED[opt1]


@pytest.mark.parametrize("fused_layers", [False, True])
@pytest.mark.parametrize("opt1", [False, True])
def test_predict_launches_no_weight_gradients(
    cu_dataset, small_cfg, cu_model, cu_batch, opt1, fused_layers
):
    """Forces need dE/dr only: with live (requires_grad) weights the sweep
    launches exactly what it launches when the weights are constants, on
    the Opt1 graph and on the baseline's.  ``predict`` builds no graph,
    so it launches nothing at all, and its forces are the Opt1 graph's
    bytes."""
    model = cu_model if opt1 else BASELINE.model(cu_model)

    def forces(p):
        with KernelCounter() as kc:
            coords = Tensor(cu_batch.coords, requires_grad=True)
            e = model.energy_graph(coords, cu_batch, p=p)
            (gc,) = grad(ops.tsum(e), [coords])
        return kc, gc.data

    live = model.param_tensors()
    assert all(t.requires_grad for t in live.values())
    frozen = {name: t.detach() for name, t in live.items()}
    old = ag_config.fused_elementwise
    ag_config.fused_elementwise = fused_layers
    try:
        kc_live, f_live = forces(live)
        kc_frozen, f_frozen = forces(frozen)
        with KernelCounter() as kc_predict:
            pred = model.predict(cu_batch)
    finally:
        ag_config.fused_elementwise = old
    assert kc_live.launches == kc_frozen.launches
    assert kc_live.total_bytes == kc_frozen.total_bytes
    assert not kc_predict.launches and kc_predict.total_bytes == 0
    assert np.array_equal(f_live, f_frozen)
    if opt1:
        assert np.array_equal(pred.forces, -f_live)
    else:
        assert np.allclose(pred.forces, -f_live, atol=1e-12)
