"""nn runtime telemetry: sampled layer profiling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nn import Dense, ReLU, Sequential
from repro.nn.runtime import (
    layer_profiling_interval,
    profiled_layers,
    set_layer_profiling,
)
from repro.nn.runtime.profiling import layer_timer, should_sample


@pytest.fixture(autouse=True)
def _profiling_off():
    """Profiling is a process-global switch; leave it how we found it."""
    saved = layer_profiling_interval()
    set_layer_profiling(0)
    yield
    set_layer_profiling(saved)


class TestSamplingSwitch:
    def test_disabled_never_samples(self):
        assert layer_profiling_interval() == 0
        assert not any(should_sample() for _ in range(20))

    def test_every_one_samples_every_call(self):
        set_layer_profiling(1)
        assert all(should_sample() for _ in range(5))

    def test_cadence_of_three(self):
        set_layer_profiling(3)
        pattern = [should_sample() for _ in range(9)]
        assert pattern == [False, False, True] * 3

    def test_setting_resets_the_phase(self):
        set_layer_profiling(2)
        should_sample()  # call 1: not sampled
        set_layer_profiling(2)
        assert [should_sample(), should_sample()] == [False, True]

    def test_negative_period_rejected(self):
        with pytest.raises(ConfigurationError):
            set_layer_profiling(-1)

    def test_context_manager_restores_prior_setting(self):
        set_layer_profiling(7)
        with profiled_layers(2):
            assert layer_profiling_interval() == 2
            with profiled_layers(5):
                assert layer_profiling_interval() == 5
            assert layer_profiling_interval() == 2
        assert layer_profiling_interval() == 7

    def test_context_manager_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with profiled_layers(4):
                raise RuntimeError("boom")
        assert layer_profiling_interval() == 0


class TestSequentialProfiling:
    def _model_and_input(self, rng):
        model = Sequential([Dense(6, 4, rng=rng), ReLU()])
        model.set_training(False)
        return model, rng.standard_normal((3, 6)).astype(np.float32)

    def test_profiled_forward_times_every_layer(self, rng):
        model, x = self._model_and_input(rng)
        with profiled_layers(1):
            model.forward(x)
            model.forward(x)
        for layer in model.layers:
            hist = layer_timer(layer.name)
            assert hist.count == 2, layer.name
            assert hist.sum >= 0.0

    def test_sampling_period_skips_forwards(self, rng):
        model, x = self._model_and_input(rng)
        with profiled_layers(2):
            for _ in range(4):  # calls 2 and 4 are the samples
                model.forward(x)
        assert layer_timer(model.layers[0].name).count == 2

    def test_disabled_records_nothing(self, rng):
        model, x = self._model_and_input(rng)
        model.forward(x)
        assert layer_timer(model.layers[0].name).count == 0

    def test_profiled_output_matches_unprofiled(self, rng):
        model, x = self._model_and_input(rng)
        plain = model.forward(x)
        with profiled_layers(1):
            profiled = model.forward(x)
        np.testing.assert_array_equal(plain, profiled)

    def test_layer_timer_is_one_series_per_layer(self):
        assert layer_timer("conv1") is layer_timer("conv1")
        assert layer_timer("conv1") is not layer_timer("conv2")
