"""Graph fixture: an op whose output aliases its input buffer without a
``may_view`` registration -- an in-place update waiting to happen."""

import numpy as np

from repro.autograd import Tensor, make_op, ops, register_op

register_op("sneaky_identity")  # note: may_view NOT declared


def _identity_view(x):
    def backward(g, needs):
        return (g,)

    return make_op(x.data, (x,), backward, "sneaky_identity")  # no copy!


def build():
    x = Tensor(np.ones(4), requires_grad=True)
    return ops.tsum(_identity_view(x))
