"""Graph lifetime: every autograd graph is acyclic, so reference counting
frees it the moment its last handle drops -- never the cyclic GC.

The closure rule (``repro.autograd.tensor``): a backward closure holds no
strong reference to the tensor its op returns, nor to another closure
that does.  The checks below run each entry point once to warm caches and
pools, then once more under ``gc.DEBUG_SAVEALL``: whatever the collector
finds then is a graph that reference counting could not free.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.autograd import Tensor, grad, make_op, ops
from repro.model import ModelSession, make_batch
from repro.model import environment as envmod
from repro.optim import FEKF, RLEKF, Adam, KalmanConfig
from repro.optim import ekf as ekf_mod
from repro.parallel import DistributedFEKF
from repro.perf import BASELINE
from repro.serve import InferenceService, ServeConfig


def _kcfg():
    return KalmanConfig(blocksize=1024)


def _holds_arrays(obj) -> bool:
    """A tensor or array, or an object (or its ``__dict__``) holding one."""
    if isinstance(obj, (Tensor, np.ndarray)):
        return True
    for ref in gc.get_referents(obj):
        if isinstance(ref, np.ndarray):
            return True
        if isinstance(ref, dict) and any(isinstance(v, np.ndarray) for v in ref.values()):
            return True
    return False


def cyclic_garbage(fn) -> list[str]:
    """Type names of what the cyclic GC collects after a second call of
    ``fn`` (the first one warms caches, pools and lazy state) that is or
    holds a tensor or array."""
    fn()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        fn()
        gc.collect()
        found = sorted(type(o).__name__ for o in gc.garbage if _holds_arrays(o))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return found


@pytest.fixture()
def big_batch(cu_dataset, small_cfg):
    """Above ``ekf.SWEEP_LANES_MIN``, so FEKF sweeps its groups on lanes."""
    return make_batch(cu_dataset, np.arange(8), small_cfg)


class TestNoCyclicGarbage:
    def test_predict(self, cu_model, cu_batch):
        assert cyclic_garbage(lambda: cu_model.predict(cu_batch)) == []

    def test_predict_energy(self, cu_model, cu_batch):
        assert cyclic_garbage(lambda: cu_model.predict_energy(cu_batch)) == []

    def test_evaluate_rmse(self, cu_model, cu_dataset):
        assert cyclic_garbage(lambda: cu_model.evaluate_rmse(cu_dataset, max_frames=4)) == []

    @pytest.mark.parametrize("n_lanes", [1, 2])
    def test_fekf_step(self, monkeypatch, cu_model, big_batch, n_lanes):
        monkeypatch.setattr(ekf_mod, "lane_count", lambda n: min(n, n_lanes))
        opt = FEKF(cu_model, _kcfg(), seed=3)
        assert cyclic_garbage(lambda: opt.step_batch(big_batch)) == []
        assert opt.stats()["force_lanes"] == n_lanes

    def test_rlekf_step(self, cu_model, cu_dataset, small_cfg):
        opt = RLEKF(cu_model, _kcfg(), seed=3)
        batch = make_batch(cu_dataset, np.arange(1), small_cfg)
        assert cyclic_garbage(lambda: opt.step_batch(batch)) == []

    def test_adam_step(self, cu_model, cu_batch):
        """Adam's force loss is differentiated through a create_graph
        force graph."""
        opt = Adam(cu_model)
        assert cyclic_garbage(lambda: opt.step_batch(cu_batch)) == []

    def test_distributed_fekf_thread_ranks(self, cu_model, big_batch):
        dist = DistributedFEKF(
            cu_model, world_size=2, kalman_cfg=_kcfg(), executor="thread", seed=0
        )
        try:
            assert cyclic_garbage(lambda: dist.step_batch(big_batch)) == []
        finally:
            dist.close()

    def test_served_micro_batch(self, cu_model, cu_dataset):
        cfg = ServeConfig(max_batch=3, cache_predictions=False)
        frames = cu_dataset.positions[:3]
        with InferenceService(ModelSession(cu_model), cfg) as svc:
            found = cyclic_garbage(
                lambda: svc.predict_many(frames, cu_dataset.species, cu_dataset.cell)
            )
        assert found == []


def _graph_refs(root: Tensor) -> list:
    """Weak references to every non-leaf node of ``root``'s graph."""
    refs, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen or node.is_leaf():
            continue
        seen.add(id(node))
        refs.append(weakref.ref(node))
        stack.extend(node._parents)
    return refs


class TestRefcountFreesTheGraph:
    """With the collector off, dropping the output frees every node."""

    @pytest.fixture(autouse=True)
    def _no_collector(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    def test_activation_dies_with_its_output(self):
        x = Tensor(np.linspace(0.1, 1.0, 12).reshape(4, 3), requires_grad=True)
        h = ops.tanh(x)
        y = ops.tsum(ops.exp(ops.sqrt(ops.add(ops.mul(h, h), 1.0))))
        act = weakref.ref(h)
        del h
        assert act() is not None  # y's graph still needs it
        del y
        assert act() is None

    @pytest.mark.parametrize("opt1", [False, True])
    def test_energy_graph_dies_with_the_energy(self, cu_model, cu_batch, opt1):
        model = cu_model if opt1 else BASELINE.model(cu_model)
        coords = Tensor(cu_batch.coords, requires_grad=True)
        e = model.energy_graph(coords, cu_batch)
        refs = _graph_refs(e)
        assert len(refs) > 10
        del e
        assert [r for r in refs if r() is not None] == []

    def test_force_graph_dies_with_the_forces(self, cu_model, cu_batch):
        """The create_graph backward through the Opt1 pair: forces hold
        the env vjp nodes, whose backward is the adjoint."""
        coords = Tensor(cu_batch.coords, requires_grad=True)
        e = cu_model.energy_graph(coords, cu_batch)
        (f,) = grad(ops.tsum(e), [coords], create_graph=True)
        del e
        refs = _graph_refs(f)
        assert any(r()._op == "env_bwd_fused" for r in refs)
        del f
        assert [r for r in refs if r() is not None] == []


# ---------------------------------------------------------------------------
# bit-identity: the closure rule changes what a closure holds, not what it
# computes.  The oracles below are the pre-rule closures (strong references
# to the op's own output, and the mutually-referencing Opt1 pair).
# ---------------------------------------------------------------------------
def _strong_tanh(a: Tensor) -> Tensor:
    out_arr = np.tanh(a.data)

    def backward(g, needs):
        return (ops.mul(g, ops.sub(1.0, ops.mul(out, out))),)

    out = make_op(out_arr, (a,), backward, "tanh")
    return out


def _strong_exp(a: Tensor) -> Tensor:
    out_arr = np.exp(a.data)

    def backward(g, needs):
        return (ops.mul(g, out),)

    out = make_op(out_arr, (a,), backward, "exp")
    return out


def _strong_sqrt(a: Tensor) -> Tensor:
    out_arr = np.sqrt(a.data)

    def backward(g, needs):
        return (ops.div(ops.mul(g, 0.5), out),)

    out = make_op(out_arr, (a,), backward, "sqrt")
    return out


def _second_order(fn, x0: np.ndarray, w0: np.ndarray, v0: np.ndarray) -> list[bytes]:
    """Bytes of y, dy/dx and d(dy/dx . v)/d(x, w) for y = sum(fn(x) * w)."""
    x = Tensor(x0, requires_grad=True)
    w = Tensor(w0, requires_grad=True)
    y = ops.tsum(ops.mul(fn(x), w))
    (gx,) = grad(y, [x], create_graph=True)
    gx2, gw = grad(ops.tsum(ops.mul(gx, Tensor(v0))), [x, w])
    return [t.data.tobytes() for t in (y, gx, gx2, gw)]


class TestDoubleBackwardBits:
    @pytest.mark.parametrize(
        "new, old",
        [(ops.tanh, _strong_tanh), (ops.exp, _strong_exp), (ops.sqrt, _strong_sqrt)],
        ids=["tanh", "exp", "sqrt"],
    )
    def test_matches_the_strong_closure(self, new, old):
        rng = np.random.default_rng(5)
        x0 = rng.uniform(0.2, 1.5, size=(5, 4))
        w0, v0 = rng.normal(size=(2, 5, 4))
        assert _second_order(new, x0, w0, v0) == _second_order(old, x0, w0, v0)

    def test_env_pair_matches_the_mutual_closures(self, cu_batch, small_cfg):
        """Forces through the Opt1 kernel, then their derivative along the
        weights and along coords (vjp -> adjoint -> vjp)."""
        stats = envmod.identity_stats()

        def mutual_ops(env, batch):
            def vjp_op(g_rn):
                out = envmod._env_vjp(g_rn.data, env, batch, stats)
                return make_op(out, (g_rn,), lambda g, n: (adjoint_op(g),), "env_bwd_fused")

            def adjoint_op(gg):
                out = envmod._env_vjp_transpose(gg.data, env, batch, stats)
                return make_op(
                    out, (gg,), lambda g, n: (vjp_op(g),), "env_bwd_transpose_fused"
                )

            return vjp_op

        def strong_env(coords):
            rn, env = envmod.environment_np(coords.data, cu_batch, small_cfg, stats)
            vjp_op = mutual_ops(env, cu_batch)
            return make_op(rn, (coords,), lambda g, n: (vjp_op(g),), "env_fused")

        def new_env(coords):
            return envmod.environment_fused(coords, cu_batch, small_cfg, stats)

        rng = np.random.default_rng(9)
        w0 = rng.normal(size=(4, 3))
        v0 = rng.normal(size=cu_batch.coords.shape)

        def run(env_fn):
            coords = Tensor(cu_batch.coords, requires_grad=True)
            w = Tensor(w0, requires_grad=True)
            e = ops.tsum(ops.tanh(ops.matmul(env_fn(coords), w)))
            (gc_,) = grad(e, [coords], create_graph=True)
            gcc, gw = grad(ops.tsum(ops.mul(gc_, Tensor(v0))), [coords, w])
            return [t.data.tobytes() for t in (e, gc_, gcc, gw)]

        assert run(new_env) == run(strong_env)
