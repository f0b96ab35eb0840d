"""Elementwise activation layers and stable softmax helpers."""

from __future__ import annotations

import numpy as np

from repro.nn.layers.base import Layer, as_float32


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


class ReLU(Layer):
    """Rectified linear unit."""

    def __init__(self, name: str | None = None) -> None:
        super().__init__(name)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = as_float32(x)
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        mask = self._require_cache(self._mask)
        return np.where(mask, as_float32(grad), 0.0)


class LeakyReLU(Layer):
    """Leaky ReLU with configurable negative slope."""

    def __init__(self, negative_slope: float = 0.01,
                 name: str | None = None) -> None:
        super().__init__(name)
        self.negative_slope = float(negative_slope)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = as_float32(x)
        self._mask = x > 0
        return np.where(self._mask, x, self.negative_slope * x)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        mask = self._require_cache(self._mask)
        grad = as_float32(grad)
        return np.where(mask, grad, self.negative_slope * grad)


class Sigmoid(Layer):
    """Logistic sigmoid."""

    def __init__(self, name: str | None = None) -> None:
        super().__init__(name)
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = as_float32(x)
        # Split by sign to avoid exp overflow on large-magnitude inputs.
        out = np.empty_like(x)
        positive = x >= 0
        out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
        exp_x = np.exp(x[~positive])
        out[~positive] = exp_x / (1.0 + exp_x)
        self._out = out
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        out = self._require_cache(self._out)
        return as_float32(grad) * out * (1.0 - out)


class Tanh(Layer):
    """Hyperbolic tangent."""

    def __init__(self, name: str | None = None) -> None:
        super().__init__(name)
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = np.tanh(as_float32(x))
        return self._out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        out = self._require_cache(self._out)
        return as_float32(grad) * (1.0 - out * out)


class Softmax(Layer):
    """Softmax over the last axis.

    Prefer the fused :class:`repro.nn.losses.SoftmaxCrossEntropy` during
    training; this layer exists for inference-time probability heads and for
    models trained with non-CE losses.
    """

    def __init__(self, name: str | None = None) -> None:
        super().__init__(name)
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = softmax(as_float32(x), axis=-1)
        return self._out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        out = self._require_cache(self._out)
        grad = as_float32(grad)
        dot = (grad * out).sum(axis=-1, keepdims=True)
        return out * (grad - dot)
