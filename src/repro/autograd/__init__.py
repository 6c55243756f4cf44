"""repro.autograd -- reverse-mode autodiff on numpy with double backward.

Public surface::

    from repro.autograd import Tensor, grad, no_grad, fused_kernels
    from repro.autograd import ops            # primitive functional ops
    from repro.autograd.fuse import linear_tanh, residual_linear_tanh
    from repro.autograd import KernelCounter, TapeRecorder, Sanitizer  # observers

Each op-stream observer is its own context manager (``with
KernelCounter() as kc:``); the op profiler is ``Tracer(profile=True)``
in :mod:`repro.telemetry`.
"""

from .config import config, enable_grad, fused_kernels, no_grad
from .gradcheck import check_gradients, check_second_order, numerical_grad
from .instrument import (
    KernelCounter,
    OpInfo,
    op_info,
    record_launch,
    register_op,
    registered_ops,
)
from .tensor import GRAD_DTYPE, Tensor, as_tensor, grad, make_op
from .capture import Sanitizer, SanitizerError, TapeEntry, TapeRecorder
from . import fuse, ops

__all__ = [
    "Tensor",
    "TapeRecorder",
    "TapeEntry",
    "Sanitizer",
    "SanitizerError",
    "as_tensor",
    "grad",
    "make_op",
    "no_grad",
    "enable_grad",
    "fused_kernels",
    "config",
    "ops",
    "fuse",
    "GRAD_DTYPE",
    "KernelCounter",
    "record_launch",
    "OpInfo",
    "register_op",
    "op_info",
    "registered_ops",
    "check_gradients",
    "check_second_order",
    "numerical_grad",
]
