"""Fused op implementations for compiled execution plans.

Every op computes what its source layers' eval-mode forward computes,
within float32 rounding: batch-norm folds to one per-channel scale and
shift, convolutions run as batched NCHW GEMMs, and pooling slides over
kernel taps instead of unfolding columns.  The op arithmetic is
deterministic, so the golden replay fixtures pin it bit for bit.  Around
the arithmetic, outputs land in preplanned arena views instead of fresh
allocations, batch-norm + ReLU run as an in-place epilogue on the GEMM
output instead of two extra array passes, and per-step LSTM views are
presliced at bind time instead of per call.
"""

from __future__ import annotations

import numpy as np

from repro.nn.compile.plan import BindContext, PlanOp, SlotRef
from repro.nn.compile.quantize import PlanWeight

_ZERO = np.float32(0.0)
_ONE = np.float32(1.0)


def _strided_window_view(src: np.ndarray, kernel: tuple[int, int],
                         stride: tuple[int, int],
                         out_hw: tuple[int, int]) -> np.ndarray:
    """The (n, c, kh, kw, oh, ow) sliding-window view of an NCHW array."""
    n, c = src.shape[:2]
    kh, kw = kernel
    sh, sw = stride
    oh, ow = out_hw
    sn, sc, sh_b, sw_b = src.strides
    return np.lib.stride_tricks.as_strided(
        src,
        shape=(n, c, kh, kw, oh, ow),
        strides=(sn, sc, sh_b, sw_b, sh_b * sh, sw_b * sw),
        writeable=False,
    )


def _view_reshape(array: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reshape that must stay a view (writing to a silent copy is a bug)."""
    out = array.reshape(shape)
    if out.size and not np.shares_memory(out, array):
        raise AssertionError("plan bug: destination reshape copied")
    return out


class _EpilogueMixin:
    """Shared bias / scale-shift / ReLU output-pass fusion."""

    def _init_epilogue(self, bias, scale, shift, relu: bool) -> None:
        self.bias = None if bias is None else np.asarray(bias, np.float32)
        self.scale = None if scale is None else np.asarray(scale, np.float32)
        self.shift = None if shift is None else np.asarray(shift, np.float32)
        self.relu = bool(relu)

    def _bind_epilogue(self, dest: np.ndarray, *, channels_first: bool):
        """An in-place epilogue closure over ``dest`` (None when empty).

        ``channels_first`` reshapes the per-channel factors for NCHW
        output; dense output broadcasts them directly.
        """
        def factor(vec):
            if vec is None:
                return None
            return vec[:, None, None] if channels_first else vec
        bias = factor(self.bias)
        scale, shift = factor(self.scale), factor(self.shift)
        relu = self.relu
        if bias is None and scale is None and not relu:
            return None

        def run() -> None:
            if bias is not None:
                np.add(dest, bias, out=dest)
            if scale is not None:
                np.multiply(dest, scale, out=dest)
                np.add(dest, shift, out=dest)
            if relu:
                np.maximum(dest, _ZERO, out=dest)
        return run


class ConvOp(_EpilogueMixin, PlanOp):
    """im2col conv GEMM with a fused scale-shift-activation epilogue."""

    kind = "conv"

    def __init__(self, *, layer: str, fused: tuple[str, ...],
                 weight: PlanWeight, bias, scale, shift, relu: bool,
                 kernel: tuple[int, int], stride: tuple[int, int],
                 pad: tuple[int, int], in_shape: tuple[int, int, int],
                 out_shape: tuple[int, int, int], in_ref: SlotRef,
                 out_ref: SlotRef, out_channels: tuple[int, int] | None,
                 pad_ref: SlotRef | None, cols_ref: SlotRef | None) -> None:
        super().__init__(layer=layer, fused=fused)
        self.weight = weight
        self._init_epilogue(bias, scale, shift, relu)
        self.kernel, self.stride, self.pad = kernel, stride, pad
        self.in_shape, self.out_shape = in_shape, out_shape
        self.in_ref, self.out_ref = in_ref, out_ref
        self.out_channels = out_channels
        self.pad_ref, self.cols_ref = pad_ref, cols_ref

    def slot_refs(self) -> list[SlotRef]:
        refs = [self.in_ref, self.out_ref]
        if self.pad_ref is not None:
            refs.append(self.pad_ref)
        if self.cols_ref is not None:
            refs.append(self.cols_ref)
        return refs

    def bind(self, rt: BindContext):
        n = rt.n
        c, h, w = self.in_shape
        oc, oh, ow = self.out_shape
        kh, kw = self.kernel
        sh, sw = self.stride
        ph, pw = self.pad
        flat_w = self.weight.materialize()
        dest4 = rt.dest(self.out_ref, self.out_channels)
        dest3 = _view_reshape(dest4, (n, oc, oh * ow))
        get_in = rt.reader(self.in_ref)
        epilogue = self._bind_epilogue(dest4, channels_first=True)

        if (kh, kw) == (1, 1) and (sh, sw) == (1, 1) and (ph, pw) == (0, 0):
            def run() -> None:
                x = get_in()
                np.matmul(flat_w, x.reshape(n, c, h * w), out=dest3)
                if epilogue is not None:
                    epilogue()
            return run

        cols = rt.view(self.cols_ref)
        cols6 = cols.reshape(n, c, kh, kw, oh, ow)
        if ph or pw:
            padbuf = rt.view(self.pad_ref)   # pinned: borders stay zero
            interior = padbuf[:, :, ph:ph + h, pw:pw + w]
            window = _strided_window_view(padbuf, self.kernel, self.stride,
                                          (oh, ow))

            def run() -> None:
                interior[...] = get_in()
                cols6[...] = window
                np.matmul(flat_w, cols, out=dest3)
                if epilogue is not None:
                    epilogue()
            return run

        if self.in_ref.slot != 0:
            # Arena-resident source: the window view is fixed per binding.
            window = _strided_window_view(rt.view(self.in_ref), self.kernel,
                                          self.stride, (oh, ow))

            def run() -> None:
                cols6[...] = window
                np.matmul(flat_w, cols, out=dest3)
                if epilogue is not None:
                    epilogue()
            return run

        def run() -> None:
            cols6[...] = _strided_window_view(get_in(), self.kernel,
                                              self.stride, (oh, ow))
            np.matmul(flat_w, cols, out=dest3)
            if epilogue is not None:
                epilogue()
        return run


class DenseOp(_EpilogueMixin, PlanOp):
    """2-D GEMM with the same fused epilogue as :class:`ConvOp`."""

    kind = "dense"

    def __init__(self, *, layer: str, fused: tuple[str, ...],
                 weight: PlanWeight, bias, scale, shift, relu: bool,
                 in_features: int, out_features: int, in_ref: SlotRef,
                 out_ref: SlotRef,
                 out_channels: tuple[int, int] | None = None) -> None:
        super().__init__(layer=layer, fused=fused)
        self.weight = weight
        self._init_epilogue(bias, scale, shift, relu)
        self.in_features, self.out_features = in_features, out_features
        self.in_ref, self.out_ref = in_ref, out_ref
        self.out_channels = out_channels

    def slot_refs(self) -> list[SlotRef]:
        return [self.in_ref, self.out_ref]

    def bind(self, rt: BindContext):
        w = self.weight.materialize()
        dest2 = rt.dest(self.out_ref, self.out_channels)
        get_in = rt.reader(self.in_ref)
        epilogue = self._bind_epilogue(dest2, channels_first=False)

        def run() -> None:
            np.matmul(get_in(), w, out=dest2)
            if epilogue is not None:
                epilogue()
        return run


class _PoolOpBase(PlanOp):
    def __init__(self, *, layer: str, kernel: tuple[int, int],
                 stride: tuple[int, int], pad: tuple[int, int],
                 in_shape: tuple[int, int, int],
                 out_shape: tuple[int, int, int], in_ref: SlotRef,
                 out_ref: SlotRef, out_channels: tuple[int, int] | None,
                 pad_ref: SlotRef | None) -> None:
        super().__init__(layer=layer)
        self.kernel, self.stride, self.pad = kernel, stride, pad
        self.in_shape, self.out_shape = in_shape, out_shape
        self.in_ref, self.out_ref = in_ref, out_ref
        self.out_channels = out_channels
        self.pad_ref = pad_ref

    def slot_refs(self) -> list[SlotRef]:
        refs = [self.in_ref, self.out_ref]
        if self.pad_ref is not None:
            refs.append(self.pad_ref)
        return refs

    def _bind_taps(self, rt: BindContext):
        """(acc, interior_copy_or_None, per-tap source views)."""
        _, h, w = self.in_shape
        _, oh, ow = self.out_shape
        kh, kw = self.kernel
        sh, sw = self.stride
        ph, pw = self.pad
        acc = rt.dest(self.out_ref, self.out_channels)
        get_in = rt.reader(self.in_ref)
        if ph or pw:
            padbuf = rt.view(self.pad_ref)
            interior = padbuf[:, :, ph:ph + h, pw:pw + w]

            def fill() -> None:
                interior[...] = get_in()
            src = padbuf
        elif self.in_ref.slot == 0:
            # Pool directly on the raw network input: stage it into its
            # own padless buffer so the taps stay fixed bind-time views.
            padbuf = rt.view(self.pad_ref)

            def fill() -> None:
                padbuf[...] = get_in()
            src = padbuf
        else:
            fill = None
            src = rt.view(self.in_ref)
        taps = [src[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw]
                for i in range(kh) for j in range(kw)]
        return acc, fill, taps


class MaxPoolOp(_PoolOpBase):
    kind = "maxpool"

    def bind(self, rt: BindContext):
        acc, fill, taps = self._bind_taps(rt)
        first, rest = taps[0], taps[1:]

        def run() -> None:
            if fill is not None:
                fill()
            acc[...] = first
            for tap in rest:
                np.maximum(acc, tap, out=acc)
        return run


class AvgPoolOp(_PoolOpBase):
    kind = "avgpool"

    def __init__(self, *, acc_ref: SlotRef | None = None, **kwargs) -> None:
        super().__init__(**kwargs)
        self.acc_ref = acc_ref

    def slot_refs(self) -> list[SlotRef]:
        refs = super().slot_refs()
        if self.acc_ref is not None:
            refs.append(self.acc_ref)
        return refs

    def _bind_flat(self, rt: BindContext):
        """Contiguous-tap kernel for stride-1 pooling, or None.

        At stride 1 over a C-contiguous source buffer, the tap starting
        at kernel offset ``(i, j)`` is the whole flattened buffer shifted
        by ``i * W + j`` elements — the shift is uniform across samples
        and channels because every (sample, channel) plane occupies a
        contiguous block.  Summing those shifted flat views visits each
        output element with the exact operand values and add order of the
        strided-tap loop (positions past each plane's last window start
        accumulate junk that the output view never reads), but every
        ``np.add`` runs over one long contiguous pair instead of
        kernel-width rows, which is several times faster on the small
        feature maps this network pools.
        """
        _, h, w = self.in_shape
        _, oh, ow = self.out_shape
        kh, kw = self.kernel
        ph, pw = self.pad
        get_in = rt.reader(self.in_ref)
        if self.pad_ref is not None:
            padbuf = rt.view(self.pad_ref)
            if ph or pw:
                interior = padbuf[:, :, ph:ph + h, pw:pw + w]

                def fill() -> None:
                    interior[...] = get_in()
            else:
                def fill() -> None:
                    padbuf[...] = get_in()
            src = padbuf
        else:
            fill = None
            src = rt.view(self.in_ref)
        if not src.flags["C_CONTIGUOUS"]:
            return None
        width = src.shape[3]
        flat_src = src.reshape(-1)
        span = flat_src.size - ((kh - 1) * width + (kw - 1))
        taps = [flat_src[i * width + j:i * width + j + span]
                for i in range(kh) for j in range(kw)]
        acc = rt.view(self.acc_ref)
        acc_run = acc.reshape(-1)[:span]
        pooled = acc.reshape(src.shape)[:, :, :oh, :ow]
        return fill, acc_run, taps, pooled

    def bind(self, rt: BindContext):
        kh, kw = self.kernel
        inv = np.float32(1.0 / (kh * kw))
        flat = self._bind_flat(rt) if self.acc_ref is not None else None
        if flat is not None:
            fill, acc_run, taps, pooled = flat
            dest = rt.dest(self.out_ref, self.out_channels)

            def run() -> None:
                if fill is not None:
                    fill()
                acc_run.fill(0.0)
                for tap in taps:
                    np.add(acc_run, tap, out=acc_run)
                np.multiply(pooled, inv, out=dest)
            return run

        acc, fill, taps = self._bind_taps(rt)

        def run() -> None:
            if fill is not None:
                fill()
            acc.fill(0.0)
            for tap in taps:
                np.add(acc, tap, out=acc)
            np.multiply(acc, inv, out=acc)
        return run


class GlobalAvgPoolOp(PlanOp):
    kind = "gap"

    def __init__(self, *, layer: str, in_ref: SlotRef,
                 out_ref: SlotRef) -> None:
        super().__init__(layer=layer)
        self.in_ref, self.out_ref = in_ref, out_ref

    def slot_refs(self) -> list[SlotRef]:
        return [self.in_ref, self.out_ref]

    def bind(self, rt: BindContext):
        dest = rt.view(self.out_ref)
        get_in = rt.reader(self.in_ref)

        def run() -> None:
            np.mean(get_in(), axis=(2, 3), out=dest)
        return run


class ScaleShiftOp(PlanOp):
    """Standalone eval batch-norm (one not preceded by a GEMM to fuse into)."""

    kind = "scale_shift"

    def __init__(self, *, layer: str, fused: tuple[str, ...], scale, shift,
                 relu: bool, in_ref: SlotRef, out_ref: SlotRef,
                 channels_first: bool) -> None:
        super().__init__(layer=layer, fused=fused)
        self.scale = np.asarray(scale, np.float32)
        self.shift = np.asarray(shift, np.float32)
        self.relu = bool(relu)
        self.in_ref, self.out_ref = in_ref, out_ref
        self.channels_first = channels_first

    def slot_refs(self) -> list[SlotRef]:
        return [self.in_ref, self.out_ref]

    def bind(self, rt: BindContext):
        dest = rt.view(self.out_ref)
        get_in = rt.reader(self.in_ref)
        scale = (self.scale[:, None, None] if self.channels_first
                 else self.scale)
        shift = (self.shift[:, None, None] if self.channels_first
                 else self.shift)
        relu = self.relu

        def run() -> None:
            np.multiply(get_in(), scale, out=dest)
            np.add(dest, shift, out=dest)
            if relu:
                np.maximum(dest, _ZERO, out=dest)
        return run


class ReluOp(PlanOp):
    kind = "relu"

    def __init__(self, *, layer: str, in_ref: SlotRef,
                 out_ref: SlotRef) -> None:
        super().__init__(layer=layer)
        self.in_ref, self.out_ref = in_ref, out_ref

    def slot_refs(self) -> list[SlotRef]:
        return [self.in_ref, self.out_ref]

    def bind(self, rt: BindContext):
        dest = rt.view(self.out_ref)
        get_in = rt.reader(self.in_ref)

        def run() -> None:
            np.maximum(get_in(), _ZERO, out=dest)
        return run


class CopyOp(PlanOp):
    """Stage a slot into a channel slice of another (branch-final fallback
    for lowerings that cannot write a sliced destination directly)."""

    kind = "copy"

    def __init__(self, *, layer: str, in_ref: SlotRef, out_ref: SlotRef,
                 out_channels: tuple[int, int]) -> None:
        super().__init__(layer=layer)
        self.in_ref, self.out_ref = in_ref, out_ref
        self.out_channels = out_channels

    def slot_refs(self) -> list[SlotRef]:
        return [self.in_ref, self.out_ref]

    def bind(self, rt: BindContext):
        dest = rt.dest(self.out_ref, self.out_channels)
        get_in = rt.reader(self.in_ref)

        def run() -> None:
            dest[...] = get_in()
        return run


class BiLstmOp(PlanOp):
    """Bidirectional LSTM as one stacked-GEMM recurrence.

    Both directions' input projections run as a single ``(n*t, 2*4h)``
    GEMM against the column-concatenated kernels, and each timestep's
    gate matmul runs both directions at once as a ``(2, n, h) @
    (2, h, 4h)`` batched matmul.  The elementwise gate math is one
    sigmoid pass over the whole gate block with tanh overwriting the
    cell-gate columns, and the Python-level step loop runs once instead
    of twice.
    """

    kind = "bilstm"

    def __init__(self, *, layer: str, fused: tuple[str, ...],
                 w_x_cat: np.ndarray, w_h_stack: np.ndarray,
                 bias_cat: np.ndarray, hidden: int, steps: int,
                 features: int, return_sequences: bool, in_ref: SlotRef,
                 proj_ref: SlotRef, out_ref: SlotRef) -> None:
        super().__init__(layer=layer, fused=fused)
        self.w_x_cat = np.ascontiguousarray(w_x_cat, dtype=np.float32)
        self.w_h_stack = np.ascontiguousarray(w_h_stack, dtype=np.float32)
        self.bias_cat = np.ascontiguousarray(bias_cat, dtype=np.float32)
        self.hidden, self.steps, self.features = hidden, steps, features
        self.return_sequences = bool(return_sequences)
        self.in_ref, self.proj_ref, self.out_ref = in_ref, proj_ref, out_ref

    def slot_refs(self) -> list[SlotRef]:
        return [self.in_ref, self.proj_ref, self.out_ref]

    def bind(self, rt: BindContext):
        n = rt.n
        h, t, f = self.hidden, self.steps, self.features
        four_h = 4 * h
        proj2 = rt.view(SlotRef(self.proj_ref.slot, (t * 2 * four_h,))
                        ).reshape(n * t, 2 * four_h)
        proj3 = proj2.reshape(n, t, 2 * four_h)
        get_in = rt.reader(self.in_ref)
        w_x, w_h, bias = self.w_x_cat, self.w_h_stack, self.bias_cat
        # Per-step projection/output views, presliced once.  Forward reads
        # step s, backward reads step t-1-s; with return_sequences the
        # backward hidden for input index t-1-s is written straight to
        # that index, which is the layer's collect-then-re-reverse result.
        p_fwd = [proj3[:, s, :four_h] for s in range(t)]
        p_bwd = [proj3[:, t - 1 - s, four_h:] for s in range(t)]
        out = rt.view(self.out_ref)
        if self.return_sequences:
            o_fwd = [out[:, s, :h] for s in range(t)]
            o_bwd = [out[:, t - 1 - s, h:] for s in range(t)]
        # Recurrent state and gate buffers: O(n*h), owned by the binding.
        h_st = np.empty((2, n, h), dtype=np.float32)
        c_st = np.empty((2, n, h), dtype=np.float32)
        z = np.empty((2, n, four_h), dtype=np.float32)
        sig = np.empty((2, n, four_h), dtype=np.float32)
        g_gate = np.empty((2, n, h), dtype=np.float32)
        tmp = np.empty((2, n, h), dtype=np.float32)
        steps = range(t)
        return_sequences = self.return_sequences

        def run() -> None:
            x2 = get_in().reshape(n * t, f)
            np.matmul(x2, w_x, out=proj2)
            np.add(proj2, bias, out=proj2)
            h_st.fill(0.0)
            c_st.fill(0.0)
            for s in steps:
                np.matmul(h_st, w_h, out=z)
                z[0] += p_fwd[s]
                z[1] += p_bwd[s]
                # sigmoid over every gate column; [i, f, g, o] layout —
                # the cell-gate block is then overwritten by tanh.
                np.negative(z, out=sig)
                np.exp(sig, out=sig)
                np.add(sig, _ONE, out=sig)
                np.divide(_ONE, sig, out=sig)
                np.tanh(z[:, :, 2 * h:3 * h], out=g_gate)
                # c = f * c + i * g
                np.multiply(sig[:, :, h:2 * h], c_st, out=c_st)
                np.multiply(sig[:, :, :h], g_gate, out=tmp)
                np.add(c_st, tmp, out=c_st)
                # h = o * tanh(c)
                np.tanh(c_st, out=tmp)
                np.multiply(sig[:, :, 3 * h:], tmp, out=h_st)
                if return_sequences:
                    o_fwd[s][...] = h_st[0]
                    o_bwd[s][...] = h_st[1]
            if not return_sequences:
                out[:, :h] = h_st[0]
                out[:, h:] = h_st[1]
        return run
