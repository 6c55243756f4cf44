"""Property-based tests of the Kalman core (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.optim import KalmanConfig, KalmanState
from repro.optim.kalman import FLUSH_EVERY
from repro.perf.presets import DenseKalmanState

LAYERS = [(0, 8), (1, 20), (2, 7)]
N = 35


def _state(fused=False):
    return (KalmanState if fused else DenseKalmanState)(N, LAYERS, KalmanConfig(blocksize=16))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=8), st.booleans())
def test_p_remains_spd_under_any_update_sequence(seeds, fused):
    """P blocks stay symmetric positive definite for arbitrary gradients."""
    state = _state(fused)
    for seed in seeds:
        g = np.random.default_rng(seed).normal(size=N) * 2.0
        state.update(g, 0.3, 1.5)
    for i in range(len(state.blocks)):
        p = state.p_dense(i)
        assert np.allclose(p, p.T, atol=1e-9)
        assert np.linalg.eigvalsh(p).min() > 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=6))
def test_fused_and_naive_agree_on_any_sequence(seeds):
    a, b = _state(False), _state(True)
    for seed in seeds:
        g = np.random.default_rng(seed).normal(size=N)
        dwa = a.update(g, 0.2, 1.0)
        dwb = b.update(g, 0.2, 1.0)
        assert np.allclose(dwa, dwb, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(FLUSH_EVERY, 2 * FLUSH_EVERY + 5),
    st.floats(1e-3, 3.0),
)
def test_fused_and_naive_agree_across_flushes(seed, n_updates, magnitude):
    """Sequences long enough to cross one or two rank-k flushes: the
    deferred P (stored triangle + pending pairs) is the naive P at every
    phase of the window, and stays SPD."""
    a, b = _state(False), _state(True)
    r = np.random.default_rng(seed)
    for _ in range(n_updates):
        g = r.normal(size=N) * magnitude
        assert np.allclose(a.update(g, 0.2, 1.5), b.update(g, 0.2, 1.5), atol=1e-10)
    assert b.pending == n_updates % FLUSH_EVERY
    for i in range(len(a.blocks)):
        p = b.p_dense(i)
        assert np.allclose(a.p_dense(i), p, atol=1e-10)
        assert np.linalg.eigvalsh(p).min() > 0


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(0, 2 * FLUSH_EVERY),
    st.integers(1, FLUSH_EVERY + 3),
)
def test_observing_or_forking_never_perturbs_the_filter(seed, fork_at, tail):
    """clone / checksum / p_dense at any phase of the pending window are
    pure: the observed filter, its fork and an unobserved twin continue
    bit-identically (through the next flush)."""
    observed, quiet = _state(True), _state(True)
    r = np.random.default_rng(seed)
    grads = [r.normal(size=N) for _ in range(fork_at + tail)]
    for g in grads[:fork_at]:
        observed.update(g, 0.3, 1.0)
        quiet.update(g, 0.3, 1.0)
        observed.checksum(), observed.p_dense(1), observed.p_memory_bytes()
    fork = observed.clone()
    assert fork.pending == observed.pending == fork_at % FLUSH_EVERY
    for g in grads[fork_at:]:
        dw = quiet.update(g, 0.3, 1.0)
        assert np.array_equal(dw, observed.update(g, 0.3, 1.0))
        assert np.array_equal(dw, fork.update(g, 0.3, 1.0))
    assert quiet.checksum() == observed.checksum() == fork.checksum()
    for i in range(len(quiet.blocks)):
        assert np.array_equal(quiet.p_dense(i), fork.p_dense(i))


@settings(max_examples=30, deadline=None)
@given(
    st.floats(0.01, 10.0),
    st.floats(0.1, 4.0),
    st.integers(0, 2**31 - 1),
)
def test_increment_linear_in_error_and_scale(error, scale, seed):
    """dw = scale * error * K: linearity in both factors (pre-clip)."""
    g = np.random.default_rng(seed).normal(size=N) * 0.1
    s1 = KalmanState(N, LAYERS, KalmanConfig(blocksize=16, max_step_norm=np.inf))
    s2 = KalmanState(N, LAYERS, KalmanConfig(blocksize=16, max_step_norm=np.inf))
    dw1 = s1.update(g, error, scale)
    dw2 = s2.update(g, 2 * error, scale)
    assert np.allclose(dw2, 2 * dw1, rtol=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_trace_monotone_decrease_along_measured_direction(seed):
    """One update shrinks P along g (and inflates elsewhere by 1/lambda)."""
    state = KalmanState(
        N, LAYERS, KalmanConfig(blocksize=16, p_trace_cap=np.inf, max_step_norm=np.inf)
    )
    g = np.random.default_rng(seed).normal(size=N)
    g /= np.linalg.norm(g)
    before = [state.p_dense(i) for i in range(len(state.blocks))]
    state.update(g, 0.0, 1.0)
    lam = 0.98
    for i, blk in enumerate(state.blocks):
        gb = g[blk.slice()]
        if np.linalg.norm(gb) < 1e-8:
            continue
        gb = gb / np.linalg.norm(gb)
        quad_before = gb @ before[i] @ gb
        quad_after = gb @ state.p_dense(i) @ gb
        # along g the downdate beats the 1/lambda inflation
        assert quad_after < quad_before / lam + 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 40), st.integers(1, 6))
def test_any_layer_structure_is_accepted(size_unit, n_layers):
    layers = [(i, size_unit + i) for i in range(n_layers)]
    total = sum(s for _, s in layers)
    state = KalmanState(total, layers, KalmanConfig(blocksize=max(size_unit, 8)))
    dw = state.update(np.ones(total) * 0.01, 0.1, 1.0)
    assert dw.shape == (total,)
    assert np.all(np.isfinite(dw))
