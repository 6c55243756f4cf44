"""Graph fixture: an op declared second_order=False appearing in a graph
that will be differentiated twice (lint with ``--second-order``)."""

import numpy as np

from repro.autograd import Tensor, make_op, ops, register_op

register_op("raw_square", second_order=False)


def _raw_square(x):
    def backward(g, needs):
        # raw-numpy backward: correct to first order, no graph behind it
        return (Tensor(g.data * 2.0 * x.data),)

    return make_op(x.data ** 2, (x,), backward, "raw_square")


def build():
    x = Tensor(np.ones(4), requires_grad=True)
    return ops.tsum(_raw_square(x))
