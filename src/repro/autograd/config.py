"""Global autograd configuration flags.

The engine has two per-thread toggles:

* ``grad_enabled`` -- when ``False`` (inside :func:`no_grad`), newly created
  tensors record no graph edges.  This mirrors ``torch.no_grad`` and is what
  makes plain ``backward()`` (``create_graph=False``) cheap: the backward
  closures still run tensor ops, but those ops do not themselves build a
  second-order graph.
* ``fused_elementwise`` -- when ``True``, composite layers (``linear_tanh``
  and friends in :mod:`repro.autograd.fuse`) execute as single fused kernels
  instead of chains of primitive kernels.  This is the repo's analog of
  ``torch.compile`` kernel fusion (paper Opt2).
"""

from __future__ import annotations

import contextlib
import threading


class _AutogradConfig(threading.local):
    """Per-thread engine flags.

    Thread-locality matters for the parallel rank executors: a
    ``no_grad()`` block entered by one worker thread's backward pass must
    not switch off graph construction in a sibling thread's forward pass
    mid-flight.  Each thread starts from the defaults below; a flag set
    on the main thread is deliberately NOT inherited by worker threads.
    """

    def __init__(self):
        self.grad_enabled: bool = True
        self.fused_elementwise: bool = False


config = _AutogradConfig()


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the ``with`` block."""
    prev = config.grad_enabled
    config.grad_enabled = False
    try:
        yield
    finally:
        config.grad_enabled = prev


@contextlib.contextmanager
def enable_grad():
    """Re-enable graph construction (used inside backward closures when
    ``create_graph=True``)."""
    prev = config.grad_enabled
    config.grad_enabled = True
    try:
        yield
    finally:
        config.grad_enabled = prev


@contextlib.contextmanager
def fused_kernels(enabled: bool = True):
    """Toggle fused composite kernels inside the ``with`` block."""
    prev = config.fused_elementwise
    config.fused_elementwise = enabled
    try:
        yield
    finally:
        config.fused_elementwise = prev
