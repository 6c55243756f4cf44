"""Graph fixture: a two-parent backward closure that ignores ``needs``."""

import numpy as np

from repro.autograd import Tensor, make_op, ops, register_op

register_op("greedy_mul")


def _greedy_mul(a, b):
    def backward(g, needs):
        # computes (and returns) both gradients whatever the sweep asked for
        return ops.mul(g, b), ops.mul(g, a)

    return make_op(a.data * b.data, (a, b), backward, "greedy_mul")


def build():
    a = Tensor(np.arange(1.0, 4.0), requires_grad=True)
    b = Tensor(np.full(3, 2.0), requires_grad=True)
    return ops.tsum(_greedy_mul(a, b))
