"""Shared fixtures for the DarNet reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture(autouse=True)
def _fresh_metrics_registry():
    """Give every test an empty process-default metrics registry.

    Instrumented modules (transport, health, layer profiling…) record
    into the process registry as a side effect; without this reset,
    counts would leak across tests and exact-value assertions would
    depend on execution order.
    """
    from repro.obs.metrics import reset_registry

    reset_registry()
    yield
    reset_registry()


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator, fresh per test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_driving_dataset():
    """A small paired dataset shared across core tests (session-scoped)."""
    from repro.datasets import generate_driving_dataset

    return generate_driving_dataset(
        90, num_drivers=2, rng=np.random.default_rng(777))


@pytest.fixture(scope="session")
def tiny_alternative_dataset():
    """A small 18-class dataset shared across privacy tests."""
    from repro.datasets import generate_alternative_dataset

    return generate_alternative_dataset(
        4, num_drivers=2, rng=np.random.default_rng(778))


@pytest.fixture(scope="session")
def mixed_scenario_spec():
    """The committed mixed-class fleet scenario (old + extended classes)."""
    from pathlib import Path

    from repro.scenarios import ScenarioSpec

    return ScenarioSpec.load(
        str(Path(__file__).parent / "fixtures" / "scenario_mixed_spec.json"))


@pytest.fixture(scope="session")
def extended_ensemble(mixed_scenario_spec):
    """Extended 8-class heads trained on the mixed scenario's own windows.

    Epochs are chosen so both new classes are actually learned: the CNN
    separates CAMERA_COVERED frames, the IMU RNN separates the DROWSY
    lane-weave — the fused verdict stream then surfaces both classes.
    """
    from repro.core import CnnConfig, RnnConfig
    from repro.scenarios import scenario_training_set, train_extended_ensemble

    train = scenario_training_set(mixed_scenario_spec)
    return train_extended_ensemble(
        train,
        cnn_config=CnnConfig(epochs=16, width=0.5),
        rnn_config=RnnConfig(hidden_units=16, epochs=16),
        rng=np.random.default_rng(7))
