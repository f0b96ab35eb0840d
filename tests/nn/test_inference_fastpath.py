"""Inference fast path: parity with the reference forward.

The fast path is the default inference path: ``NeuralNetwork`` runs the
active backend's compiled plan, or the eval-mode layer forward when the
compiler has no lowering for a layer.  Every layer and composite must
produce the same output (atol 1e-5) through it as through the reference
path that ``repro.nn.reference_mode`` forces.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ReproError
from repro.nn import (
    GRU,
    LSTM,
    AvgPool2D,
    BatchNorm,
    BidirectionalGRU,
    BidirectionalLSTM,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    LeakyReLU,
    MaxPool2D,
    NeuralNetwork,
    ParallelBranches,
    ReLU,
    Reshape,
    Residual,
    Sequential,
    Sigmoid,
    Softmax,
    Tanh,
    assert_float32,
    in_reference_mode,
    reference_mode,
)

ATOL = 1e-5


def _model(layer) -> NeuralNetwork:
    """An inference-only wrapper (no optimizer: it never trains)."""
    return NeuralNetwork(layer, optimizer_factory=lambda params: None)


def _check_parity(layer, x, *, compiles=True):
    """Default-path output of ``layer`` on ``x``, checked against the
    reference forward; ``compiles`` says whether a plan must exist."""
    model = _model(layer)
    fast = model.forward_in_batches(x)
    with reference_mode():
        reference = model.forward_in_batches(x)
    plans = list(model._plans.values())
    assert plans and (plans[0] is not None) == compiles
    np.testing.assert_allclose(fast, reference, atol=ATOL)
    assert fast.dtype == np.float32
    assert fast.flags["C_CONTIGUOUS"]
    return fast


@pytest.mark.parametrize("kernel,stride,padding,bias", [
    (3, 1, "same", True), (1, 1, "valid", True), ((1, 7), 1, "same", False),
    (3, 2, "valid", True), (5, 1, 2, False),
])
def test_conv_fast_path_matches_reference(rng, kernel, stride, padding, bias):
    layer = Conv2D(3, 5, kernel, stride=stride, padding=padding,
                   use_bias=bias, rng=rng)
    x = rng.standard_normal((4, 3, 12, 12)).astype(np.float32)
    _check_parity(layer, x)


@pytest.mark.parametrize("cls", [MaxPool2D, AvgPool2D])
@pytest.mark.parametrize("pool,stride,padding", [
    (2, 2, 0), (3, 2, 1), (3, 1, "same"),
])
def test_pool_fast_path_matches_reference(rng, cls, pool, stride, padding):
    layer = cls(pool, stride=stride, padding=padding)
    x = rng.standard_normal((3, 4, 10, 10)).astype(np.float32)
    _check_parity(layer, x)


@pytest.mark.parametrize("cls", [GlobalAvgPool2D, Dense, BatchNorm, ReLU,
                                 LeakyReLU, Sigmoid, Softmax, Tanh])
def test_pointwise_layers_match_reference(rng, cls):
    if cls is GlobalAvgPool2D:
        layer, x = cls(), rng.standard_normal((3, 6, 7, 7))
    elif cls is Dense:
        layer, x = cls(11, 5, rng=rng), rng.standard_normal((8, 11))
    elif cls is BatchNorm:
        layer, x = cls(6), rng.standard_normal((8, 6, 5, 5))
        layer.set_training(True)
        layer.forward(x.astype(np.float32))  # accumulate running stats
    else:
        layer, x = cls(), rng.standard_normal((8, 13))
    _check_parity(layer, x.astype(np.float32),
                  compiles=cls in (GlobalAvgPool2D, Dense, BatchNorm, ReLU))


@pytest.mark.parametrize("cls", [LSTM, GRU, BidirectionalLSTM,
                                 BidirectionalGRU])
@pytest.mark.parametrize("return_sequences", [True, False])
def test_recurrent_fast_path_matches_reference(rng, cls, return_sequences):
    layer = cls(12, 8, return_sequences=return_sequences, rng=rng)
    x = rng.standard_normal((5, 9, 12)).astype(np.float32)
    _check_parity(layer, x, compiles=cls is BidirectionalLSTM)


@pytest.mark.parametrize("rate", [0.0, 0.3, 0.9])
def test_dropout_eval_is_identity_on_both_paths(rng, rate):
    layer = Dropout(rate, rng=rng)
    x = rng.standard_normal((6, 9)).astype(np.float32)
    out = _check_parity(layer, x, compiles=False)
    np.testing.assert_array_equal(out, x)


def test_flatten_fast_path_matches_reference(rng):
    layer = Flatten()
    x = rng.standard_normal((4, 3, 5, 5)).astype(np.float32)
    out = _check_parity(layer, x, compiles=False)
    assert out.shape == (4, 75)


def test_reshape_fast_path_matches_reference(rng):
    layer = Reshape((3, 25))
    x = rng.standard_normal((4, 75)).astype(np.float32)
    out = _check_parity(layer, x, compiles=False)
    assert out.shape == (4, 3, 25)


def test_parallel_branches_fast_path_matches_reference(rng):
    layer = ParallelBranches([
        Sequential([Conv2D(3, 4, 1, rng=rng), ReLU()]),
        Sequential([Conv2D(3, 2, 3, padding="same", rng=rng)]),
    ])
    x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
    out = _check_parity(layer, x)
    assert out.shape == (2, 6, 8, 8)  # channel concat of 4 + 2


def test_residual_fast_path_matches_reference(rng):
    layer = Residual(Sequential([Dense(10, 10, rng=rng), Tanh()]))
    x = rng.standard_normal((5, 10)).astype(np.float32)
    _check_parity(layer, x, compiles=False)


def test_sequential_composite_fast_path_matches_reference(rng):
    model = Sequential([
        Conv2D(1, 4, 3, padding="same", rng=rng),
        BatchNorm(4),
        ReLU(),
        MaxPool2D(2, stride=2),
        Dropout(0.5, rng=rng),
        Flatten(),
        Dense(4 * 4 * 4, 6, rng=rng),
        Softmax(),
    ])
    x = rng.standard_normal((3, 1, 8, 8)).astype(np.float32)
    model.set_training(True)
    model.forward(x)  # accumulate BatchNorm running stats
    # The Softmax head has no lowering, so the whole model runs its layer
    # forward; without the head the same stack compiles to one plan.
    _check_parity(model, x, compiles=False)
    _check_parity(Sequential(model.layers[:-1]), x)


def test_fast_path_skips_backward_caches(rng):
    """Inference leaves no backward caches on the layers, whether it runs
    a compiled plan (ReLU head) or the layer forward (Tanh head)."""
    x = rng.standard_normal((2, 2, 8, 8)).astype(np.float32)
    for head in (ReLU(), Tanh()):
        conv = Conv2D(2, 3, 3, rng=rng)
        _model(Sequential([conv, head, Flatten()])).forward_in_batches(x)
        assert conv._cols is None
        assert getattr(head, "_mask", None) is None
        assert getattr(head, "_out", None) is None


def test_reference_mode_restores_fast_path():
    assert not in_reference_mode()
    with reference_mode():
        assert in_reference_mode()
        with reference_mode():
            assert in_reference_mode()
        assert in_reference_mode()
    assert not in_reference_mode()


def test_assert_float32_rejects_float64():
    assert_float32(np.zeros(3, dtype=np.float32))
    with pytest.raises(ReproError):
        assert_float32(np.zeros(3, dtype=np.float64), where="logits")


def test_ensemble_fast_path_matches_reference(tiny_driving_dataset):
    from repro.core import CnnConfig, DarNetEnsemble, RnnConfig

    ensemble = DarNetEnsemble(
        "cnn+rnn", cnn_config=CnnConfig(epochs=1, width=0.5),
        rnn_config=RnnConfig(hidden_units=8, epochs=1),
        rng=np.random.default_rng(3))
    ensemble.fit(tiny_driving_dataset)
    images = tiny_driving_dataset.images[:16]
    windows = tiny_driving_dataset.imu[:16]
    fast = ensemble.predict_degraded(images=images, imu=windows)
    with reference_mode():
        reference = ensemble.predict_degraded(images=images, imu=windows)
    np.testing.assert_allclose(fast.probabilities, reference.probabilities,
                               atol=ATOL)
    np.testing.assert_array_equal(fast.predictions, reference.predictions)
