"""The gradcheck utility itself must catch wrong gradients."""

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    check_gradients,
    check_second_order,
    fuse,
    make_op,
    numerical_grad,
    ops,
)


def _broken_square(a: Tensor) -> Tensor:
    """x^2 with a deliberately wrong backward (factor 3 instead of 2)."""
    out = a.data**2

    def backward(g, needs):
        return (ops.mul(g, ops.mul(a, 3.0)),)

    return make_op(out, (a,), backward, "broken_square")


class TestGradcheck:
    def test_accepts_correct_gradients(self):
        check_gradients(lambda a: ops.tsum(ops.power(a, 2.0)), [np.array([1.0, -2.0])])

    def test_rejects_wrong_gradients(self):
        with pytest.raises(AssertionError, match="gradient mismatch"):
            check_gradients(
                lambda a: ops.tsum(_broken_square(a)), [np.array([1.0, -2.0])]
            )

    def test_reports_offending_input_index(self):
        with pytest.raises(AssertionError, match="input 1"):
            check_gradients(
                lambda a, b: ops.tsum(ops.add(a, _broken_square(b))),
                [np.array([1.0]), np.array([2.0])],
            )

    def test_numerical_grad_matches_analytic_form(self):
        x = np.array([0.3, 1.7])
        num = numerical_grad(lambda a: ops.tsum(ops.power(a, 3.0)), [x])
        assert np.allclose(num, 3 * x**2, atol=1e-5)

    def test_numerical_grad_wrt_second_input(self):
        a, b = np.array([1.0]), np.array([2.0])
        num = numerical_grad(lambda x, y: ops.tsum(ops.mul(x, y)), [a, b], wrt=1)
        assert num[0] == pytest.approx(1.0)


def _raw_square(a: Tensor) -> Tensor:
    """x^2 whose backward is correct to first order but records no graph
    (a missing second-order rule)."""
    out = a.data**2

    def backward(g, needs):
        return (Tensor(g.data * 2.0 * a.data),)

    return make_op(out, (a,), backward, "raw_square_gc")


class TestSecondOrder:
    def test_accepts_elementwise_chain(self):
        rng = np.random.default_rng(0)
        check_second_order(
            lambda a: ops.tsum(ops.mul(ops.tanh(a), a)),
            [rng.standard_normal(4) * 0.5],
        )

    def test_accepts_matmul(self):
        rng = np.random.default_rng(1)
        check_second_order(
            lambda x, w: ops.tsum(ops.tanh(ops.matmul(x, w))),
            [rng.standard_normal((3, 4)) * 0.5, rng.standard_normal((4, 2)) * 0.5],
        )

    def test_accepts_fused_layer_dual_path(self):
        """The fused DeePMD layer switches to its composed backward under
        create_graph; the double-backward checker certifies that path."""
        rng = np.random.default_rng(2)
        check_second_order(
            lambda x, W, b: ops.tsum(fuse.residual_linear_tanh_fused(x, W, b)),
            [
                rng.standard_normal((2, 3)) * 0.5,
                rng.standard_normal((3, 3)) * 0.5,
                rng.standard_normal(3) * 0.1,
            ],
        )

    def test_rejects_graphless_backward(self):
        with pytest.raises(AssertionError, match="disconnected"):
            check_second_order(
                lambda a: ops.tsum(_raw_square(a)), [np.array([1.0, 2.0])]
            )

    def test_rejects_frozen_coefficient_backward(self):
        """A backward whose value is right but which detaches half of
        its input dependence (frozen coefficients, the env_fused
        failure mode) must fail on curvature, not connectivity."""

        def frozen(a: Tensor) -> Tensor:
            out = a.data**2

            def backward(g, needs):
                # 2a = a + detached(a): first order exact, but the
                # graph only sees d(2a)/da = 1 instead of 2.
                return (ops.mul(g, ops.add(a, Tensor(a.data))),)

            return make_op(out, (a,), backward, "frozen_square_gc")

        with pytest.raises(AssertionError, match="second-order mismatch"):
            check_second_order(
                lambda a: ops.tsum(frozen(a)), [np.array([1.0, 2.0])]
            )

    def test_explicit_directions(self):
        check_second_order(
            lambda a: ops.tsum(ops.mul(a, a)),
            [np.array([1.0, 2.0])],
            directions=[np.array([1.0, 0.0])],
        )
        with pytest.raises(ValueError, match="one direction"):
            check_second_order(
                lambda a: ops.tsum(ops.mul(a, a)),
                [np.array([1.0, 2.0])],
                directions=[np.ones(2), np.ones(2)],
            )
