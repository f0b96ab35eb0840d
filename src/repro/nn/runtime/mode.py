"""Reference-mode switch — thread-local.

Eval-mode inference runs the active backend's compiled plan
(:mod:`repro.nn.compile`).  :func:`reference_mode` makes
:meth:`~repro.nn.model.NeuralNetwork.forward_in_batches` skip the plan
and run the literal eval-mode layer forward instead.  The switch exists
for the parity tests, the benchmark harness and the benchmark's output
checks, all of which compare the compiled path against the layer
arithmetic it replaces.

The switch is **thread-local**: a benchmark thread inside
:func:`reference_mode` must not silently drop concurrent serving threads
onto the reference path.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

_LOCAL = threading.local()


def in_reference_mode() -> bool:
    """Whether the calling thread is inside :func:`reference_mode`."""
    return getattr(_LOCAL, "active", False)


@contextmanager
def reference_mode():
    """Run the eval-mode layer forward instead of compiled plans **on
    this thread**.  Nesting restores the outer state; other threads are
    unaffected."""
    saved = in_reference_mode()
    _LOCAL.active = True
    try:
        yield
    finally:
        _LOCAL.active = saved
