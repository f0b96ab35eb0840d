"""Inference-time runtime switches: reference mode and layer profiling."""

from repro.nn.runtime.mode import in_reference_mode, reference_mode
from repro.nn.runtime.profiling import (
    layer_profiling_interval,
    profiled_layers,
    set_layer_profiling,
)

__all__ = [
    "in_reference_mode", "reference_mode",
    "layer_profiling_interval", "profiled_layers", "set_layer_profiling",
]
