"""2-D convolution implemented with im2col.

The im2col transform rewrites every receptive field as a matrix row so the
convolution becomes one large GEMM — the standard way to get acceptable
convolution throughput out of numpy.  Supports rectangular kernels (needed
by the factorized 1xN / Nx1 convolutions of the Inception-V3 family),
arbitrary stride, and ``"same"`` / ``"valid"`` / integer padding.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.initializers import get_initializer
from repro.nn.layers.base import Layer, Parameter, as_float32


def _pair(value: int | tuple[int, int]) -> tuple[int, int]:
    if isinstance(value, tuple):
        return int(value[0]), int(value[1])
    return int(value), int(value)


def resolve_padding(padding: str | int | tuple[int, int],
                    kernel: tuple[int, int]) -> tuple[int, int]:
    """Resolve a padding spec to per-axis pad amounts.

    ``"same"`` keeps spatial size for stride 1 and odd kernels; ``"valid"``
    pads nothing.
    """
    if padding == "same":
        return (kernel[0] - 1) // 2, (kernel[1] - 1) // 2
    if padding == "valid":
        return 0, 0
    if isinstance(padding, (int, tuple)):
        return _pair(padding)
    raise ConfigurationError(f"unknown padding spec {padding!r}")


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a conv/pool along one axis."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"convolution output collapsed: size={size} kernel={kernel} "
            f"stride={stride} pad={pad}"
        )
    return out


def im2col(x: np.ndarray, kernel: tuple[int, int], stride: tuple[int, int],
           pad: tuple[int, int]) -> tuple[np.ndarray, tuple[int, int]]:
    """Unfold NCHW input into ``(batch * oh * ow, c * kh * kw)`` columns.

    Returns the column matrix and the output spatial size ``(oh, ow)``.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = pad
    oh = conv_output_size(h, kh, sh, ph)
    ow = conv_output_size(w, kw, sw, pw)
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant")
    # Strided view: (n, c, kh, kw, oh, ow) without copying.
    sn, sc, sh_b, sw_b = x.strides
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kh, kw, oh, ow),
        strides=(sn, sc, sh_b, sw_b, sh_b * sh, sw_b * sw),
        writeable=False,
    )
    cols = view.transpose(0, 4, 5, 1, 2, 3).reshape(n * oh * ow, c * kh * kw)
    return np.ascontiguousarray(cols), (oh, ow)


def col2im(cols: np.ndarray, x_shape: tuple[int, int, int, int],
           kernel: tuple[int, int], stride: tuple[int, int],
           pad: tuple[int, int]) -> np.ndarray:
    """Fold column gradients back onto the (padded) input, summing overlaps."""
    n, c, h, w = x_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = pad
    oh = conv_output_size(h, kh, sh, ph)
    ow = conv_output_size(w, kw, sw, pw)
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    cols6 = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    for i in range(kh):
        i_max = i + sh * oh
        for j in range(kw):
            j_max = j + sw * ow
            padded[:, :, i:i_max:sh, j:j_max:sw] += cols6[:, :, i, j]
    if ph or pw:
        return padded[:, :, ph:ph + h, pw:pw + w]
    return padded


class Conv2D(Layer):
    """2-D convolution over NCHW inputs.

    Args:
        in_channels: input channel count.
        out_channels: number of filters.
        kernel_size: int or (kh, kw) — rectangular kernels supported.
        stride: int or (sh, sw).
        padding: ``"same"``, ``"valid"``, int, or (ph, pw).
        use_bias: add a per-channel bias (disable when followed by
            batch-norm, as Inception-V3 does).
        weight_init: initializer for the kernel.
        rng: generator for initialization.
    """

    def __init__(self, in_channels: int, out_channels: int,
                 kernel_size: int | tuple[int, int], *,
                 stride: int | tuple[int, int] = 1,
                 padding: str | int | tuple[int, int] = "same",
                 use_bias: bool = True, weight_init: str = "he_normal",
                 rng: np.random.Generator | None = None,
                 name: str | None = None) -> None:
        super().__init__(name)
        rng = rng or np.random.default_rng()
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = _pair(kernel_size)
        self.stride = _pair(stride)
        self.padding = resolve_padding(padding, self.kernel_size)
        init = get_initializer(weight_init)
        kh, kw = self.kernel_size
        self.weight = Parameter(
            init((out_channels, in_channels, kh, kw), rng),
            name=f"{self.name}.weight",
        )
        self.bias = None
        if use_bias:
            self.bias = Parameter(np.zeros(out_channels, dtype=np.float32),
                                  name=f"{self.name}.bias")
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None
        self._out_hw: tuple[int, int] | None = None

    def flat_weight(self) -> np.ndarray:
        """The kernel as a GEMM-ready ``(out_channels, c*kh*kw)`` matrix.

        A reshape view of the live parameter — used by the forward pass
        and by the graph compiler's plan extraction.
        """
        return self.weight.value.reshape(self.out_channels, -1)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = as_float32(x)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"{self.name}: expected (n, {self.in_channels}, h, w), got {x.shape}"
            )
        cols, (oh, ow) = im2col(x, self.kernel_size, self.stride, self.padding)
        self._cols = cols
        self._x_shape = x.shape
        self._out_hw = (oh, ow)
        flat_w = self.flat_weight()
        out = cols @ flat_w.T
        if self.bias is not None:
            out = out + self.bias.value
        n = x.shape[0]
        return out.reshape(n, oh, ow, self.out_channels).transpose(0, 3, 1, 2)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        cols = self._require_cache(self._cols)
        n, _, oh, ow = grad.shape
        grad2d = as_float32(grad).transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        flat_w = self.weight.value.reshape(self.out_channels, -1)
        self.weight.grad += (grad2d.T @ cols).reshape(self.weight.value.shape)
        if self.bias is not None:
            self.bias.grad += grad2d.sum(axis=0)
        dcols = grad2d @ flat_w
        return col2im(dcols, self._x_shape, self.kernel_size, self.stride,
                      self.padding)
