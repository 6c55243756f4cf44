"""Backward-engine semantics: accumulation, grad modes, error paths."""

import numpy as np
import pytest

from repro.autograd import Tensor, enable_grad, grad, no_grad, ops


class TestConstruction:
    def test_float32_promoted_to_float64(self):
        t = Tensor(np.zeros(3, dtype=np.float32))
        assert t.dtype == np.float64

    def test_int_tensor_allowed_without_grad(self):
        t = Tensor(np.arange(3))
        assert t.dtype.kind == "i"

    def test_int_tensor_rejects_requires_grad(self):
        with pytest.raises(TypeError):
            Tensor(np.arange(3), requires_grad=True)

    @pytest.mark.parametrize("data", [
        np.arange(3),                      # int64
        np.arange(3, dtype=np.int32),
        np.arange(3, dtype=np.uint8),
        np.zeros(3, dtype=bool),
        np.zeros(3, dtype=np.complex128),
        [1, 2, 3],                         # python ints infer integer dtype
    ])
    def test_non_float_rejects_requires_grad(self, data):
        """Every non-float dtype must refuse requires_grad loudly (bool
        and complex used to slip through the integer-only guard)."""
        with pytest.raises(TypeError, match="only float tensors"):
            Tensor(data, requires_grad=True)

    @pytest.mark.parametrize("data", [
        np.zeros(3, dtype=bool),
        np.arange(3, dtype=np.uint8),
        np.zeros(3, dtype=np.complex128),
    ])
    def test_non_float_still_allowed_without_grad(self, data):
        t = Tensor(data)
        assert t.dtype == data.dtype  # constants keep their dtype

    def test_explicit_float_cast_is_the_remedy(self):
        t = Tensor(np.arange(3).astype(float), requires_grad=True)
        assert t.dtype == np.float64 and t.requires_grad

    def test_nested_list(self):
        assert Tensor([[1.0, 2.0]]).shape == (1, 2)

    def test_properties(self):
        t = Tensor(np.zeros((2, 3)))
        assert t.ndim == 2 and t.size == 6 and len(t) == 2

    def test_detach_cuts_graph(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = (x * 2.0).detach()
        assert not y.requires_grad and y.is_leaf()


class TestBackward:
    def test_scalar_backward_seeds_ones(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (x * 3.0).sum().backward()
        assert np.allclose(x.grad.data, 3.0)

    def test_nonscalar_backward_requires_grad_arg(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2.0).backward()

    def test_nonscalar_backward_with_seed(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2.0).backward(Tensor(np.array([1.0, 0.0, 2.0])))
        assert np.allclose(x.grad.data, [2.0, 0.0, 4.0])

    def test_backward_on_leaf_raises(self):
        x = Tensor(np.ones(1))
        with pytest.raises(RuntimeError):
            x.backward()

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x * 1.0).sum().backward()
        (x * 2.0).sum().backward()
        assert np.allclose(x.grad.data, 3.0)

    def test_zero_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x * 1.0).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph_accumulates_once_per_path(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        a = x * 3.0
        y = (a + a).sum()  # two paths through a
        (g,) = grad(y, [x])
        assert g.item() == pytest.approx(6.0)

    def test_shared_subexpression(self):
        x = Tensor(np.array([1.5]), requires_grad=True)
        t = x.tanh()
        y = (t * t).sum()
        (g,) = grad(y, [x])
        expect = 2 * np.tanh(1.5) * (1 - np.tanh(1.5) ** 2)
        assert g.item() == pytest.approx(expect)


class TestFunctionalGrad:
    def test_grad_does_not_touch_dot_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        grad((x * 2.0).sum(), [x])
        assert x.grad is None

    def test_unused_input_returns_zeros(self):
        x = Tensor(np.ones(2), requires_grad=True)
        z = Tensor(np.ones(3), requires_grad=True)
        gs = grad((x * 2.0).sum(), [x, z])
        assert np.allclose(gs[1].data, 0.0)

    def test_unused_input_raises_when_disallowed(self):
        x = Tensor(np.ones(2), requires_grad=True)
        z = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            grad((x * 2.0).sum(), [x, z], allow_unused=False)

    def test_input_without_requires_grad_raises(self):
        """It used to come back as silent zeros (the true gradient of
        sum(x*c) w.r.t. c is x); now that the inputs decide which part of
        the graph is swept it would also prune the whole sweep."""
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        c = Tensor(np.ones(3))
        y = (x * c).sum()
        with pytest.raises(ValueError, match=r"input #1 .* does not require grad"):
            grad(y, [x, c])
        with pytest.raises(ValueError, match="input #0"):
            grad(y, [c], allow_unused=True)
        # allow_unused still governs inputs the output really does not reach
        z = Tensor(np.ones(2), requires_grad=True)
        assert np.array_equal(grad(y, [z])[0].data, np.zeros(2))

    def test_grad_output_seed(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (g,) = grad(x * 2.0, [x], grad_output=Tensor(np.array([1.0, 2.0, 3.0])))
        assert np.allclose(g.data, [2.0, 4.0, 6.0])


class TestGradModes:
    def test_no_grad_blocks_graph(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_no_grad_nesting_restores(self):
        x = Tensor(np.ones(1), requires_grad=True)
        with no_grad():
            with enable_grad():
                y = x * 2.0
            z = x * 2.0
        assert y.requires_grad and not z.requires_grad
        assert (x * 1.0).requires_grad

    def test_constant_inputs_build_no_graph(self):
        y = Tensor(np.ones(2)) * Tensor(np.ones(2))
        assert y.is_leaf() and not y.requires_grad


class TestTopologicalOrder:
    def test_deep_chain_does_not_recurse(self):
        x = Tensor(np.array([0.1]), requires_grad=True)
        y = x
        for _ in range(2000):  # deeper than the default recursion limit
            y = y * 1.001
        (g,) = grad(y.sum(), [x])
        assert g.item() == pytest.approx(1.001**2000, rel=1e-9)

    def test_wide_fanout(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        total = ops.tsum(ops.concat([x * float(i) for i in range(50)], axis=0))
        (g,) = grad(total, [x])
        assert g.item() == pytest.approx(sum(range(50)))
