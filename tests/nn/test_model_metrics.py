"""NeuralNetwork training wrapper, metrics, serialization."""

import copy
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    ConfigurationError,
    NotFittedError,
    SerializationError,
    ShapeError,
)
from repro.nn import (
    Adam,
    BatchNorm,
    BidirectionalLSTM,
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    MSELoss,
    NeuralNetwork,
    ReLU,
    SGD,
    Sequential,
    accuracy,
    confusion_matrix,
    copy_weights,
    format_confusion,
    iterate_minibatches,
    load_weights,
    normalized_confusion,
    per_class_accuracy,
    precision_recall_f1,
    save_weights,
    top_k_accuracy,
)


def _toy_model(rng, in_dim=4, classes=3):
    net = Sequential([Dense(in_dim, 16, rng=rng), ReLU(),
                      Dense(16, classes, rng=rng)])
    return NeuralNetwork(net, optimizer_factory=lambda p: Adam(p, 5e-3))


def _blobs(rng, n=90, classes=3, dim=4):
    centers = rng.normal(0, 4.0, size=(classes, dim))
    y = rng.integers(0, classes, n)
    x = centers[y] + rng.normal(0, 0.5, size=(n, dim))
    return x.astype(np.float32), y


def test_fit_learns_blobs(rng):
    x, y = _blobs(rng)
    model = _toy_model(rng)
    history = model.fit(x, y, epochs=30, batch_size=16, rng=rng)
    assert history.epochs == 30
    assert history.loss[-1] < history.loss[0]
    assert model.evaluate(x, y) > 0.9


def test_fit_requires_matching_lengths(rng):
    model = _toy_model(rng)
    with pytest.raises(ShapeError):
        model.fit(np.zeros((4, 4), dtype=np.float32), np.zeros(5, dtype=int))


def test_predict_before_fit_raises(rng):
    model = _toy_model(rng)
    with pytest.raises(NotFittedError):
        model.predict(np.zeros((2, 4), dtype=np.float32))


def test_mark_fitted_allows_inference(rng):
    model = _toy_model(rng)
    model.mark_fitted()
    assert model.predict(np.zeros((2, 4), dtype=np.float32)).shape == (2,)


def test_optimizer_factory_required(rng):
    with pytest.raises(ConfigurationError):
        NeuralNetwork(Sequential([Dense(2, 2, rng=rng)]))


def test_predict_proba_rows_sum_to_one(rng):
    x, y = _blobs(rng, n=30)
    model = _toy_model(rng)
    model.fit(x, y, epochs=2, rng=rng)
    probs = model.predict_proba(x)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-5)


def test_validation_and_early_stopping(rng):
    x, y = _blobs(rng, n=60)
    model = _toy_model(rng)
    history = model.fit(x[:40], y[:40], epochs=50, batch_size=8, rng=rng,
                        validation=(x[40:], y[40:]),
                        early_stopping_patience=3)
    assert history.epochs <= 50
    assert len(history.val_loss) == history.epochs


def test_batched_inference_matches_single_batch(rng):
    x, y = _blobs(rng, n=50)
    model = _toy_model(rng)
    model.fit(x, y, epochs=2, rng=rng)
    full = model.forward_in_batches(x, batch_size=50)
    chunked = model.forward_in_batches(x, batch_size=7)
    np.testing.assert_allclose(full, chunked, atol=1e-5)


def _array_bytes(obj, seen=None) -> int:
    """Bytes of every distinct ndarray reachable from ``obj``."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        items = obj.values()
    elif isinstance(obj, (list, tuple)):
        items = obj
    elif hasattr(obj, "__dict__"):
        items = vars(obj).values()
    else:
        return 0
    return sum(_array_bytes(item, seen) for item in items)


def _layer_tree(layer):
    yield layer
    for child in layer.children():
        yield from _layer_tree(child)


def _fitted_cnn_and_rnn(rng):
    """A conv/BN/ReLU/pool/dense model and a BiLSTM model, each fitted."""
    cnn = NeuralNetwork(
        Sequential([Conv2D(1, 4, 3, rng=rng), BatchNorm(4), ReLU(),
                    MaxPool2D(2), Flatten(), Dense(64, 3, rng=rng)]),
        optimizer_factory=lambda p: Adam(p))
    rnn = NeuralNetwork(
        Sequential([BidirectionalLSTM(3, 5, rng=rng), Dense(10, 3, rng=rng)]),
        optimizer_factory=lambda p: Adam(p))
    y = rng.integers(0, 3, 24)
    cnn.fit(rng.normal(size=(24, 1, 8, 8)), y, epochs=1, batch_size=8,
            rng=rng)
    rnn.fit(rng.normal(size=(24, 6, 3)), y, epochs=1, batch_size=8, rng=rng)
    return cnn, rnn


def test_fit_releases_backward_caches(rng):
    for model in _fitted_cnn_and_rnn(rng):
        for layer in _layer_tree(model.network):
            for name, value in vars(layer).items():
                if name.startswith("_"):
                    assert _array_bytes(value) == 0, f"{layer.name}.{name}"


def test_deepcopy_of_fitted_model_holds_only_weights(rng):
    """A copy of a fitted network carries parameters (values and grads)
    and batch-norm statistics, never a training batch's activations."""
    for model in _fitted_cnn_and_rnn(rng):
        network = model.network
        weights = sum(p.value.nbytes + p.grad.nbytes
                      for p in network.parameters())
        stats = sum(layer.running_mean.nbytes + layer.running_var.nbytes
                    for layer in _layer_tree(network)
                    if isinstance(layer, BatchNorm))
        assert _array_bytes(copy.deepcopy(network)) <= weights + stats


def test_target_transform_regression(rng):
    """MSE training against transformed targets (the distillation path)."""
    net = Sequential([Dense(3, 8, rng=rng), ReLU(), Dense(8, 3, rng=rng)])
    model = NeuralNetwork(net, loss=MSELoss(),
                          optimizer_factory=lambda p: SGD(p, 0.05))
    x = rng.normal(size=(40, 3)).astype(np.float32)
    history = model.fit(x, x, epochs=20, batch_size=8, rng=rng,
                        target_transform=lambda t: 2.0 * t)
    assert history.loss[-1] < history.loss[0]


def test_iterate_minibatches_covers_all_indices(rng):
    batches = list(iterate_minibatches(23, 5, rng))
    flat = np.concatenate(batches)
    assert sorted(flat.tolist()) == list(range(23))
    assert all(len(b) <= 5 for b in batches)


# -- metrics ------------------------------------------------------------

def test_accuracy_basic():
    assert accuracy(np.array([0, 1, 1]), np.array([0, 1, 0])) == pytest.approx(2 / 3)


def test_accuracy_empty_raises():
    with pytest.raises(ShapeError):
        accuracy(np.array([]), np.array([]))


def test_top_k_accuracy():
    probs = np.array([[0.5, 0.3, 0.2], [0.1, 0.2, 0.7]])
    y = np.array([1, 0])
    assert top_k_accuracy(y, probs, k=1) == 0.0
    assert top_k_accuracy(y, probs, k=2) == pytest.approx(0.5)
    assert top_k_accuracy(y, probs, k=3) == 1.0


def test_top_k_validates_k():
    probs = np.ones((2, 3)) / 3
    with pytest.raises(ShapeError):
        top_k_accuracy(np.array([0, 1]), probs, k=4)


def test_confusion_matrix_counts():
    matrix = confusion_matrix(np.array([0, 0, 1, 2]), np.array([0, 1, 1, 2]),
                              num_classes=3)
    expected = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    np.testing.assert_array_equal(matrix, expected)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                min_size=1, max_size=50))
def test_confusion_matrix_total_equals_samples(pairs):
    y_true = np.array([p[0] for p in pairs])
    y_pred = np.array([p[1] for p in pairs])
    matrix = confusion_matrix(y_true, y_pred, num_classes=5)
    assert matrix.sum() == len(pairs)
    # Diagonal sum / total == accuracy.
    assert np.trace(matrix) / len(pairs) == pytest.approx(
        accuracy(y_true, y_pred))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                min_size=1, max_size=40))
def test_normalized_confusion_rows_sum_to_one_or_zero(pairs):
    y_true = np.array([p[0] for p in pairs])
    y_pred = np.array([p[1] for p in pairs])
    norm = normalized_confusion(confusion_matrix(y_true, y_pred, 4))
    sums = norm.sum(axis=1)
    for value in sums:
        assert value == pytest.approx(1.0) or value == pytest.approx(0.0)


def test_per_class_accuracy():
    y_true = np.array([0, 0, 1, 1])
    y_pred = np.array([0, 1, 1, 1])
    np.testing.assert_allclose(per_class_accuracy(y_true, y_pred, 2),
                               [0.5, 1.0])


def test_precision_recall_f1_perfect():
    y = np.array([0, 1, 2, 0])
    precision, recall, f1 = precision_recall_f1(y, y, 3)
    np.testing.assert_allclose(precision, 1.0)
    np.testing.assert_allclose(recall, 1.0)
    np.testing.assert_allclose(f1, 1.0)


def test_format_confusion_renders(rng):
    matrix = confusion_matrix(rng.integers(0, 3, 20), rng.integers(0, 3, 20),
                              3)
    text = format_confusion(matrix, ["a", "b", "c"])
    assert "a" in text and len(text.splitlines()) == 4


# -- serialization ----------------------------------------------------------

def test_save_load_roundtrip(rng, tmp_path):
    model = _toy_model(rng)
    x, y = _blobs(rng, n=30)
    model.fit(x, y, epochs=2, rng=rng)
    path = os.path.join(tmp_path, "weights.npz")
    save_weights(model.network, path)
    fresh = _toy_model(np.random.default_rng(99))
    load_weights(fresh.network, path)
    fresh.mark_fitted()
    np.testing.assert_allclose(model.predict_logits(x),
                               fresh.predict_logits(x), atol=1e-5)


def test_load_missing_file_raises(rng, tmp_path):
    model = _toy_model(rng)
    with pytest.raises(SerializationError):
        load_weights(model.network, os.path.join(tmp_path, "nope.npz"))


def test_load_strict_shape_mismatch(rng, tmp_path):
    small = Sequential([Dense(4, 8, rng=rng)])
    big = Sequential([Dense(4, 16, rng=rng)])
    path = os.path.join(tmp_path, "w.npz")
    save_weights(small, path)
    with pytest.raises(SerializationError):
        load_weights(big, path)


def test_copy_weights(rng):
    src = Sequential([Dense(3, 5, rng=rng), ReLU(), Dense(5, 2, rng=rng)])
    dst = Sequential([Dense(3, 5, rng=np.random.default_rng(5)), ReLU(),
                      Dense(5, 2, rng=np.random.default_rng(6))])
    copied = copy_weights(src, dst)
    assert copied == 4  # two weights + two biases
    for s, d in zip(src.parameters(), dst.parameters()):
        np.testing.assert_array_equal(s.value, d.value)


def test_copy_weights_strict_mismatch(rng):
    src = Sequential([Dense(3, 5, rng=rng)])
    dst = Sequential([Dense(3, 6, rng=rng)])
    with pytest.raises(SerializationError):
        copy_weights(src, dst)


def test_save_load_batchnorm_running_stats(rng, tmp_path):
    from repro.nn import BatchNorm
    net = Sequential([Dense(4, 3, rng=rng), BatchNorm(3)])
    net.forward(rng.normal(2.0, 1.0, size=(32, 4)).astype(np.float32))
    path = os.path.join(tmp_path, "bn.npz")
    save_weights(net, path)
    fresh = Sequential([Dense(4, 3, rng=rng), BatchNorm(3)])
    load_weights(fresh, path)
    bn_old = net.layers[1]
    bn_new = fresh.layers[1]
    np.testing.assert_array_equal(bn_old.running_mean, bn_new.running_mean)
    np.testing.assert_array_equal(bn_old.running_var, bn_new.running_var)
