"""Graph fixture: a backward closure returning a wrong-shaped gradient."""

import numpy as np

from repro.autograd import Tensor, make_op, ops, register_op

register_op("broken_bwd_op")


def _broken(x):
    def backward(g, needs):
        # drops the last element: gradient no longer matches x's shape
        return (Tensor(g.data[:-1]),)

    return make_op(x.data * 2.0, (x,), backward, "broken_bwd_op")


def build():
    x = Tensor(np.ones(5), requires_grad=True)
    return ops.tsum(_broken(x))
