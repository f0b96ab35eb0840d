"""Pluggable inference backends and the thread-local backend selector.

A backend decides *how* eval-mode batched inference executes:

``numpy-compiled`` (the default)
    Graph-compiled execution plans (:mod:`repro.nn.compile.extract`):
    fused epilogues, preplanned arena offsets, stacked LSTM GEMMs.
    Within float32 rounding of the reference layer forward; a model
    with a layer that has no compiled lowering runs its eval-mode layer
    forward instead.
``numpy-compiled-int8``
    Compiled plans with int8-at-rest GEMM weights — lossy by contract,
    gated on verdict-class agreement (the dCNN privacy ladder already
    trades fidelity for bandwidth, so this extends the same contract).

The *active* backend is thread-local with a process-wide default, the
same discipline as :func:`repro.nn.runtime.mode.reference_mode`: serving
threads route different models through different backends concurrently
without fighting over a global.  New backends (a future
``blas-threaded``) register through :func:`register_backend`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from repro.exceptions import ConfigurationError
from repro.nn.compile.extract import compile_network
from repro.nn.compile.plan import CompiledNetwork, UnsupportedLayerError


class InferenceBackend:
    """One way of executing eval-mode inference."""

    #: Registry key and the ``--backend`` CLI value.
    name = "backend"
    #: Whether compiled plans quantize GEMM weights to int8.
    quantize = False

    def compile_model(self, network, input_shape
                      ) -> CompiledNetwork | None:
        """A compiled plan for ``network``, or None to run the layers."""
        return None


class NumpyCompiledBackend(InferenceBackend):
    """Graph-compiled float32 execution plans."""

    name = "numpy-compiled"

    def compile_model(self, network, input_shape
                      ) -> CompiledNetwork | None:
        try:
            return compile_network(network, input_shape,
                                   quantize=self.quantize)
        except UnsupportedLayerError:
            # Uncompilable models degrade to the eval-mode layer
            # forward; the caller caches the miss so this runs once per
            # shape.
            return None


class NumpyCompiledInt8Backend(NumpyCompiledBackend):
    """Compiled plans with int8-at-rest weights (lossy by contract)."""

    name = "numpy-compiled-int8"
    quantize = True


_REGISTRY: dict[str, InferenceBackend] = {}


def register_backend(backend: InferenceBackend) -> InferenceBackend:
    """Add a backend instance to the registry (name collisions rebind)."""
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> InferenceBackend:
    """Look up a backend by registry name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown inference backend {name!r}; "
            f"registered: {sorted(_REGISTRY)}") from None


def backend_names() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


register_backend(NumpyCompiledBackend())
register_backend(NumpyCompiledInt8Backend())

#: The backend every thread and registry uses unless told
#: otherwise.
DEFAULT_BACKEND = NumpyCompiledBackend.name
_DEFAULT = DEFAULT_BACKEND
_LOCAL = threading.local()


def active_backend_name() -> str:
    """This thread's selected backend name (default as fallback)."""
    return getattr(_LOCAL, "name", _DEFAULT)


def active_backend() -> InferenceBackend:
    """This thread's selected backend instance."""
    return get_backend(active_backend_name())


def set_default_backend(name: str) -> None:
    """Set the process-wide default backend (threads without overrides)."""
    global _DEFAULT
    get_backend(name)   # validate eagerly
    _DEFAULT = name


@contextmanager
def using_backend(name: str):
    """Select an inference backend for this thread within the block."""
    get_backend(name)   # validate eagerly
    had_override = hasattr(_LOCAL, "name")
    saved = getattr(_LOCAL, "name", None)
    _LOCAL.name = name
    try:
        yield
    finally:
        if had_override:
            _LOCAL.name = saved
        else:
            del _LOCAL.name
