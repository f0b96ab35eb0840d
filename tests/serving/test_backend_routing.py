"""Backend routing through the serving tier.

The registry owns one backend default plus per-variant overrides, and
the server's dispatch loop must execute each variant under its pinned
backend (the selection is thread-local, so it cannot leak between
variants or sessions).  These tests use a recording stub model so the
routing is observable without a trained ensemble.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ensemble import DegradedPrediction
from repro.exceptions import ConfigurationError
from repro.nn.compile import DEFAULT_BACKEND, active_backend_name
from repro.serving import InferenceServer, ServingModelRegistry


class RecordingModel:
    """predict_degraded stub that logs the active inference backend."""

    def __init__(self) -> None:
        self.backends_seen: list[str] = []

    def predict_degraded(self, *, images=None, imu=None
                         ) -> DegradedPrediction:
        count = len(images) if images is not None else len(imu)
        self.backends_seen.append(active_backend_name())
        return DegradedPrediction(
            probabilities=np.full((count, 2), 0.5, dtype=np.float32),
            predictions=np.zeros(count, dtype=np.int64),
            confidence=np.full(count, 0.5, dtype=np.float32),
            degraded=images is None,
            missing=("frames",) if images is None else (),
        )


def test_registry_default_and_per_variant_override():
    registry = ServingModelRegistry(backend="numpy-compiled")
    registry.register("float", RecordingModel())
    registry.register("quant", RecordingModel(),
                      backend="numpy-compiled-int8")
    assert registry.backend_for("float") == "numpy-compiled"
    assert registry.backend_for("quant") == "numpy-compiled-int8"


def test_registry_rejects_unknown_backends():
    with pytest.raises(ConfigurationError):
        ServingModelRegistry(backend="no-such-backend")
    registry = ServingModelRegistry()
    with pytest.raises(ConfigurationError):
        registry.register("m", RecordingModel(), backend="no-such-backend")


def _verdict_for(server, driver, privacy, now):
    sid = server.open_session(driver, privacy=privacy)
    window = np.zeros(12, dtype=np.float32)
    for k in range(4):
        server.ingest_imu(sid, now + 0.25 * k, window)
    deadline = now + 0.75
    assert server.request_verdict(sid, deadline)
    return server.drain(deadline + server.scheduler.max_delay)


def test_dispatch_runs_each_variant_under_its_pinned_backend():
    float_model, quant_model = RecordingModel(), RecordingModel()
    registry = ServingModelRegistry(default="float")
    registry.register("float", float_model)
    registry.register("quant", quant_model, backend="numpy-compiled-int8")
    registry.bind("high", "quant")
    server = InferenceServer(registry, max_batch=4)

    assert _verdict_for(server, 0, None, 0.0)
    assert _verdict_for(server, 1, "high", 10.0)

    assert float_model.backends_seen == [DEFAULT_BACKEND]
    assert quant_model.backends_seen == ["numpy-compiled-int8"]
    # The thread-local selection must not linger after dispatch.
    assert active_backend_name() == DEFAULT_BACKEND
