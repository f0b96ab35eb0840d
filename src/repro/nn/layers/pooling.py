"""Spatial pooling layers (max, average, global average)."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.layers.base import Layer, as_float32
from repro.nn.layers.conv import col2im, im2col, resolve_padding


def _pair(value: int | tuple[int, int]) -> tuple[int, int]:
    if isinstance(value, tuple):
        return int(value[0]), int(value[1])
    return int(value), int(value)


class _Pool2D(Layer):
    """Shared im2col plumbing for max/average pooling."""

    def __init__(self, pool_size: int | tuple[int, int],
                 stride: int | tuple[int, int] | None = None,
                 padding: str | int | tuple[int, int] = "valid",
                 name: str | None = None) -> None:
        super().__init__(name)
        self.pool_size = _pair(pool_size)
        self.stride = _pair(stride) if stride is not None else self.pool_size
        self.padding = resolve_padding(padding, self.pool_size)
        self._x_shape: tuple[int, int, int, int] | None = None
        self._out_hw: tuple[int, int] | None = None

    def _unfold(self, x: np.ndarray) -> np.ndarray:
        """Return pooling windows as ``(n*oh*ow*c, kh*kw)`` rows."""
        n, c, h, w = x.shape
        # Treat channels as batch so each window covers one channel only.
        reshaped = x.reshape(n * c, 1, h, w)
        cols, (oh, ow) = im2col(reshaped, self.pool_size, self.stride,
                                self.padding)
        self._x_shape = x.shape
        self._out_hw = (oh, ow)
        return cols

    def _fold(self, dcols: np.ndarray) -> np.ndarray:
        n, c, h, w = self._x_shape
        dx = col2im(dcols, (n * c, 1, h, w), self.pool_size, self.stride,
                    self.padding)
        return dx.reshape(n, c, h, w)

    def _to_nchw(self, values: np.ndarray) -> np.ndarray:
        n, c, _, _ = self._x_shape
        oh, ow = self._out_hw
        return values.reshape(n, c, oh, ow)


class MaxPool2D(_Pool2D):
    """Max pooling; default stride equals pool size (non-overlapping)."""

    def __init__(self, pool_size: int | tuple[int, int] = 2,
                 stride: int | tuple[int, int] | None = None,
                 padding: str | int | tuple[int, int] = "valid",
                 name: str | None = None) -> None:
        super().__init__(pool_size, stride, padding, name)
        self._argmax: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = as_float32(x)
        if x.ndim != 4:
            raise ShapeError(f"{self.name}: expected NCHW input, got {x.shape}")
        cols = self._unfold(x)
        self._argmax = cols.argmax(axis=1)
        return self._to_nchw(cols.max(axis=1))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        argmax = self._require_cache(self._argmax)
        flat = as_float32(grad).reshape(-1)
        kh, kw = self.pool_size
        dcols = np.zeros((flat.shape[0], kh * kw), dtype=np.float32)
        dcols[np.arange(flat.shape[0]), argmax] = flat
        return self._fold(dcols)


class AvgPool2D(_Pool2D):
    """Average pooling; default stride equals pool size."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = as_float32(x)
        if x.ndim != 4:
            raise ShapeError(f"{self.name}: expected NCHW input, got {x.shape}")
        cols = self._unfold(x)
        return self._to_nchw(cols.mean(axis=1))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self._require_cache(self._x_shape, "shape")
        kh, kw = self.pool_size
        flat = as_float32(grad).reshape(-1, 1)
        dcols = np.repeat(flat / (kh * kw), kh * kw, axis=1)
        return self._fold(dcols)


class GlobalAvgPool2D(Layer):
    """Global average pooling NCHW -> (n, c); Inception's pre-logits pool."""

    def __init__(self, name: str | None = None) -> None:
        super().__init__(name)
        self._x_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = as_float32(x)
        if x.ndim != 4:
            raise ShapeError(f"{self.name}: expected NCHW input, got {x.shape}")
        self._x_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        n, c, h, w = self._require_cache(self._x_shape, "shape")
        grad = as_float32(grad).reshape(n, c, 1, 1)
        return np.broadcast_to(grad / (h * w), (n, c, h, w)).copy()
