"""Graph fixture: a kernel launched under a name absent from the
instrument op table."""

import numpy as np

from repro.autograd import Tensor, make_op, ops


def _rogue(x):
    def backward(g, needs):
        return (g,)

    return make_op(x.data + 1.0, (x,), backward, "rogue_unregistered_kernel")


def build():
    x = Tensor(np.ones(4), requires_grad=True)
    return ops.tsum(_rogue(x))
