"""Graph-compiled inference: execution plans, fused ops, backends.

See ``DESIGN.md`` §14 for the plan IR, fusion rules, and the
quantization contract.
"""

from repro.nn.compile.backends import (
    DEFAULT_BACKEND,
    InferenceBackend,
    NumpyCompiledBackend,
    NumpyCompiledInt8Backend,
    active_backend,
    active_backend_name,
    backend_names,
    get_backend,
    register_backend,
    set_default_backend,
    using_backend,
)
from repro.nn.compile.extract import compile_network, infer_shape
from repro.nn.compile.plan import CompiledNetwork, UnsupportedLayerError
from repro.nn.compile.quantize import PlanWeight

__all__ = [
    "CompiledNetwork",
    "DEFAULT_BACKEND",
    "InferenceBackend",
    "NumpyCompiledBackend",
    "NumpyCompiledInt8Backend",
    "PlanWeight",
    "UnsupportedLayerError",
    "active_backend",
    "active_backend_name",
    "backend_names",
    "compile_network",
    "get_backend",
    "infer_shape",
    "register_backend",
    "set_default_backend",
    "using_backend",
]
