"""Graph-free inference is byte-identical to the graph it replaces.

``DeePMD.predict`` / ``predict_energy`` run plain numpy (no Tensor, no
closure, no launch); they must return the very bytes ``energy_graph`` + a
coordinate ``grad`` produce, on every system, with and without the fused
layers (Opt2).

The structure-of-arrays Opt1 kernels are checked against the
array-of-structures kernels they replaced, kept below as the oracle.
"""

from __future__ import annotations

import contextlib
import ctypes
from dataclasses import replace

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from repro.autograd import KernelCounter, Tensor, fused_kernels, grad, ops
from repro.data import SYSTEMS, generate_dataset
from repro.md import max_neighbor_count
from repro.model import DeePMD, DeePMDConfig, frames_to_batch, make_batch
from repro.model import environment as envmod
from repro.model.smooth import smooth_np


# ---------------------------------------------------------------------------
# the oracle: the AoS kernels (xyz as a trailing axis) as they were
# ---------------------------------------------------------------------------
def aos_intermediates(coords, batch, cfg):
    b, n, _ = coords.shape
    flat = coords.reshape(b * n, 3)
    neigh = flat[batch.idx_flat] + batch.shift
    rij = neigh - coords[:, :, None, :]
    r = np.linalg.norm(rij, axis=-1)
    r = np.where(batch.mask, r, 0.0)
    r_safe = np.where(r > 0, r, 1.0)
    rhat = np.where(batch.mask[..., None], rij / r_safe[..., None], 0.0)
    s, ds = smooth_np(r, cfg.rcut_smooth, cfg.rcut)
    s = np.where(batch.mask, s, 0.0)
    ds = np.where(batch.mask, ds, 0.0)
    return dict(rij=rij, r=r, rhat=rhat, s=s, ds=ds)


def aos_environment(coords, batch, cfg, stats):
    env = aos_intermediates(coords, batch, cfg)
    raw = np.concatenate([env["s"][..., None], env["s"][..., None] * env["rhat"]], axis=-1)
    rn = (raw - stats.davg) / stats.dstd
    return np.where(batch.mask[..., None], rn, 0.0), env


def aos_vjp(g_rn, env, batch, stats):
    g = np.where(batch.mask[..., None], g_rn / stats.dstd, 0.0)
    g0 = g[..., 0]
    gv = g[..., 1:4]
    gv_dot = np.sum(gv * env["rhat"], axis=-1)
    r_safe = np.where(env["r"] > 0, env["r"], 1.0)
    radial = env["ds"] * (g0 + gv_dot)
    grij = radial[..., None] * env["rhat"] + (env["s"] / r_safe)[..., None] * (
        gv - gv_dot[..., None] * env["rhat"]
    )
    grij = np.where(batch.mask[..., None], grij, 0.0)
    b, n = env["r"].shape[:2]
    gcoords = -grij.sum(axis=2)
    flat = np.zeros((b * n, 3))
    np.add.at(flat, batch.idx_flat.reshape(-1), grij.reshape(-1, 3))
    return gcoords + flat.reshape(b, n, 3)


def aos_vjp_transpose(gg, env, batch, stats):
    b, n = env["r"].shape[:2]
    flat = gg.reshape(b * n, 3)
    delta = flat[batch.idx_flat] - gg[:, :, None, :]
    d_dot = np.sum(delta * env["rhat"], axis=-1)
    r_safe = np.where(env["r"] > 0, env["r"], 1.0)
    out = np.empty(env["rij"].shape[:3] + (4,))
    out[..., 0] = env["ds"] * d_dot
    out[..., 1:4] = (env["ds"] * d_dot)[..., None] * env["rhat"] + (
        env["s"] / r_safe
    )[..., None] * (delta - d_dot[..., None] * env["rhat"])
    return np.where(batch.mask[..., None], out / stats.dstd, 0.0)


def aos_stats(source, cfg, max_frames=32):
    take = np.linspace(0, source.n_frames - 1, min(max_frames, source.n_frames)).astype(int)
    batch = make_batch(source, take, cfg)
    env = aos_intermediates(batch.coords, batch, cfg)
    m = batch.mask
    s = env["s"][m]
    sv = (env["s"][..., None] * env["rhat"])[m]
    std0, stdv = float(s.std()) + 1e-8, float(sv.std()) + 1e-8
    return np.array([float(s.mean()), 0.0, 0.0, 0.0]), np.array([std0, stdv, stdv, stdv])


# ---------------------------------------------------------------------------
# one small system each; type-aware embedding for the multi-species ones
# ---------------------------------------------------------------------------
_CACHE: dict = {}


def system_setup(name):
    if name not in _CACHE:
        spec = SYSTEMS[name]
        ds = generate_dataset(name, frames_per_temperature=2, size="small",
                              equilibration_steps=4, stride=2)
        # the cutoff the labels use, capped so the nets stay small
        rcut = min(spec.rcut, 4.5, max(0.99 * ds.cell.max_cutoff(), 1.35 * spec.first_shell))
        coord = max(max_neighbor_count(f, ds.cell, rcut) for f in ds.positions)
        cfg = DeePMDConfig.scaled_down(rcut=rcut, nmax=coord + 3)  # padded slots
        if ds.n_species > 1:
            cfg = replace(cfg, type_aware=True)
        lattice = spec.build("small")[0]  # exact zeros in rhat: signed zeros
        _CACHE[name] = (ds, cfg, DeePMD.for_dataset(ds, cfg, seed=3), lattice)
    return _CACHE[name]


def bits(a):
    return np.asarray(a).tobytes()


def graph_prediction(model, batch):
    coords = Tensor(batch.coords, requires_grad=True)
    e = model.energy_graph(coords, batch)
    (gc,) = grad(ops.tsum(e), [coords])
    return e.data, -gc.data


SYSTEM_NAMES = sorted(SYSTEMS)


@contextlib.contextmanager
def numpy_pool_at(n: int):
    """numpy's OpenBLAS pool at ``n`` threads inside the block (a test
    session runs it at one once any filter has been built)."""
    lib = ctypes.CDLL(_umath_linalg.__file__)
    if not hasattr(lib, "scipy_openblas_set_num_threads64_"):
        pytest.skip("numpy's BLAS exports no scipy_openblas thread setter")
    get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    before = get()
    set_(n)
    try:
        yield
    finally:
        set_(before)


@pytest.mark.parametrize("name", SYSTEM_NAMES)
class TestSoAKernelsMatchAoS:
    def test_stats(self, name):
        ds, cfg, model, _ = system_setup(name)
        davg, dstd = aos_stats(ds, cfg)
        assert bits(model.stats.davg) == bits(davg)
        assert bits(model.stats.dstd) == bits(dstd)

    def test_forward_vjp_adjoint(self, name):
        ds, cfg, model, lattice = system_setup(name)
        frames = np.concatenate([lattice[None], ds.positions[:3]])
        batch = frames_to_batch(frames, ds.species, ds.cell, cfg)
        assert (~batch.mask).any()
        stats = model.stats
        rn, env = envmod.environment_np(batch.coords, batch, cfg, stats)
        rn_aos, env_aos = aos_environment(batch.coords, batch, cfg, stats)
        assert bits(rn) == bits(rn_aos)
        assert bits(env.s) == bits(env_aos["s"])
        assert bits(np.moveaxis(env.rhat, 0, -1)) == bits(env_aos["rhat"])
        rng = np.random.default_rng(len(name))
        g_rn = rng.normal(size=rn.shape)
        g_rn[..., 1:] *= rng.integers(0, 2, size=g_rn[..., 1:].shape)  # exact zeros
        assert bits(envmod._env_vjp(g_rn, env, batch, stats)) == bits(
            aos_vjp(g_rn, env_aos, batch, stats))
        gg = rng.normal(size=batch.coords.shape)
        gg[:, ::2] = 0.0  # a force-group seed: zeros on the other atoms
        assert bits(envmod._env_vjp_transpose(gg, env, batch, stats)) == bits(
            aos_vjp_transpose(gg, env_aos, batch, stats))


@pytest.mark.parametrize("name", SYSTEM_NAMES)
class TestPredictMatchesGraph:
    @pytest.mark.parametrize("b", [1, 4])
    def test_predict_bytes(self, name, b):
        ds, cfg, model, _ = system_setup(name)
        batch = make_batch(ds, np.arange(b), cfg)
        assert (~batch.mask).any()
        energy, forces = graph_prediction(model, batch)
        with KernelCounter() as kc:
            pred = model.predict(batch)
            e_only = model.predict_energy(batch)
        assert not kc.launches  # no graph, no recorded op
        assert bits(pred.energy) == bits(energy)
        assert bits(pred.forces) == bits(forces)
        assert bits(e_only) == bits(energy)

    def test_predict_bytes_with_a_two_thread_numpy_pool(self, name):
        """A server keeps numpy's BLAS threads (only a filter caps them):
        its predictions must still be the graph's bytes."""
        with numpy_pool_at(2):
            self.test_predict_bytes(name, 4)

    def test_predict_bytes_fused_layers(self, name):
        ds, cfg, model, _ = system_setup(name)
        batch = make_batch(ds, np.arange(4), cfg)
        with fused_kernels():
            energy, forces = graph_prediction(model, batch)
            pred = model.predict(batch)
            e_only = model.predict_energy(batch)
        assert bits(pred.energy) == bits(energy)
        assert bits(pred.forces) == bits(forces)
        assert bits(e_only) == bits(energy)
