"""Execution-plan IR: slots, arena layout, and the bound-plan executor.

A compiled network is a flat list of ops over *slots*.  A slot is one
intermediate tensor with a fixed **per-sample** shape — the batch
dimension stays symbolic until :meth:`CompiledNetwork._bind` pins it.
Because every slot's size is linear in the batch, offsets are planned
once in per-sample float32 elements and simply scale by ``n`` at bind
time: two slots disjoint per sample are disjoint for every batch size.

Offsets come from a liveness-driven first-fit allocator, so slots whose
lifetimes do not overlap share arena memory.  Steady state, a plan run
performs **zero** buffer lookups; every op holds its views.

Binding a batch size allocates one arena, slices every slot's view, and
asks each op to close over its concrete arrays.  Bound plans are cached
per batch size (bounded LRU), so serving traffic with a stable
micro-batch size compiles and binds exactly once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ReproError
from repro.nn.runtime import profiling

#: Bound plans kept per compiled network (distinct batch sizes seen).
BOUND_CACHE_SIZE = 8


class UnsupportedLayerError(ReproError):
    """The graph compiler met a layer it has no lowering for.

    Backends catch this and the model falls back to its eval-mode layer
    forward — an uncompilable model must degrade, never crash serving.
    """


@dataclass
class Slot:
    """One planned intermediate tensor (per-sample shape, arena offset)."""

    index: int
    shape: tuple[int, ...]          # per-sample shape (no batch dim)
    first_use: int = -1             # op index of first read/write
    last_use: int = -1
    pinned: bool = False            # never share memory (pre-zeroed pads)
    offset: int = -1                # per-sample float32 element offset

    @property
    def elements(self) -> int:
        return int(np.prod(self.shape)) if self.shape else 1


class SlotRef:
    """A (slot, view-shape) pair — how ops address plan tensors.

    The view shape must hold the same number of per-sample elements as
    the slot; reshapes (Flatten, the LSTM's 2-D GEMM view) are free.
    """

    __slots__ = ("slot", "shape")

    def __init__(self, slot: int, shape: tuple[int, ...]) -> None:
        self.slot = slot
        self.shape = tuple(int(d) for d in shape)

    def __repr__(self) -> str:
        return f"SlotRef(slot={self.slot}, shape={self.shape})"


class InputHolder:
    """Mutable cell the bound plan reads the current input batch from."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: np.ndarray | None = None


class BindContext:
    """What ops see while closing over one batch size's arrays."""

    def __init__(self, n: int, views: list[np.ndarray | None],
                 holder: InputHolder) -> None:
        self.n = int(n)
        self._views = views
        self.holder = holder

    def view(self, ref: SlotRef) -> np.ndarray:
        """The bound array for a non-input slot, in the ref's view shape."""
        base = self._views[ref.slot]
        if base is None:
            raise ReproError("plan bug: op reads the raw input slot via "
                             "view(); use reader()")
        if base.shape[1:] == ref.shape:
            return base
        return base.reshape((self.n,) + ref.shape)

    def reader(self, ref: SlotRef):
        """A zero-arg callable yielding the ref's array at run time.

        Arena slots resolve to a fixed view at bind time; the network
        input slot resolves through the holder so ``run(x)`` never copies
        the input into the arena.
        """
        base = self._views[ref.slot]
        if base is None:
            holder = self.holder
            shape = (self.n,) + ref.shape
            return lambda: holder.value.reshape(shape)
        view = self.view(ref)
        return lambda: view

    def dest(self, ref: SlotRef, channels: tuple[int, int] | None
             ) -> np.ndarray:
        """The output view, optionally restricted to a channel range.

        Channel-sliced destinations are how branch-final ops write
        straight into their :class:`ParallelBranches` concat buffer.
        """
        out = self.view(ref)
        if channels is None:
            return out
        c0, c1 = channels
        return out[:, c0:c1]


class PlanOp:
    """One fused operation of the flat plan."""

    kind = "op"

    def __init__(self, *, layer: str, fused: tuple[str, ...] = ()) -> None:
        #: Primary source layer name — per-layer profiling attributes the
        #: whole fused op's time here.
        self.layer = layer
        #: Every source layer folded into this op (conv + bn + relu).
        self.fused = tuple(fused) or (layer,)
        self.index = -1

    def slot_refs(self) -> list[SlotRef]:
        """Every slot this op touches (reads, writes, scratch)."""
        raise NotImplementedError

    def bind(self, rt: BindContext):
        """Return the zero-arg run closure for one batch size."""
        raise NotImplementedError

    def describe(self) -> dict:
        return {"kind": self.kind, "layer": self.layer,
                "fused": list(self.fused)}


class PlanBuilder:
    """Accumulates slots and ops during the model walk."""

    def __init__(self, input_shape: tuple[int, ...]) -> None:
        self.slots: list[Slot] = [Slot(0, tuple(input_shape))]
        self.ops: list[PlanOp] = []

    def input_ref(self) -> SlotRef:
        return SlotRef(0, self.slots[0].shape)

    def new_slot(self, shape: tuple[int, ...], *,
                 pinned: bool = False) -> SlotRef:
        slot = Slot(len(self.slots), tuple(int(d) for d in shape),
                    pinned=pinned)
        self.slots.append(slot)
        return SlotRef(slot.index, slot.shape)

    def view(self, ref: SlotRef, shape: tuple[int, ...]) -> SlotRef:
        """A reshaped alias of an existing slot (no new storage)."""
        shape = tuple(int(d) for d in shape)
        if int(np.prod(shape)) != self.slots[ref.slot].elements:
            raise ReproError(
                f"plan bug: view {shape} does not cover slot "
                f"{self.slots[ref.slot].shape}")
        return SlotRef(ref.slot, shape)

    def emit(self, op: PlanOp) -> None:
        op.index = len(self.ops)
        self.ops.append(op)
        for ref in op.slot_refs():
            slot = self.slots[ref.slot]
            if slot.first_use < 0:
                slot.first_use = op.index
            slot.last_use = op.index

    def finish(self, output: SlotRef, *, label: str = "network"
               ) -> "CompiledNetwork":
        # The output must survive until run() copies it out.
        self.slots[output.slot].last_use = len(self.ops)
        per_sample = _assign_offsets(self.slots)
        return CompiledNetwork(label=label, ops=self.ops, slots=self.slots,
                               output=output, arena_per_sample=per_sample)


def _assign_offsets(slots: list[Slot]) -> int:
    """First-fit interval allocation over per-sample element offsets.

    Pinned slots get dedicated storage for the plan's whole lifetime
    (their pre-zeroed padding borders must survive arena reuse); every
    other slot may reuse the space of slots whose liveness has ended.
    Returns the arena size in per-sample float32 elements.
    """
    horizon = max((s.last_use for s in slots), default=0) + 1
    for slot in slots:
        if slot.pinned:
            slot.first_use, slot.last_use = 0, horizon
    live: list[Slot] = []     # allocated, sorted by offset
    top = 0
    order = sorted((s for s in slots if s.first_use >= 0),
                   key=lambda s: (s.first_use, -s.elements))
    for slot in order:
        live = [s for s in live if s.last_use >= slot.first_use]
        size = slot.elements
        cursor = 0
        for allocated in sorted(live, key=lambda s: s.offset):
            if allocated.offset - cursor >= size:
                break
            cursor = max(cursor, allocated.offset + allocated.elements)
        slot.offset = cursor
        top = max(top, cursor + size)
        live.append(slot)
    return top


@dataclass
class BoundPlan:
    """One batch size's executable form of the plan."""

    n: int
    holder: InputHolder
    funcs: list
    layers: list[str]
    output_view: np.ndarray
    arena: np.ndarray = field(repr=False, default=None)


class CompiledNetwork:
    """An immutable execution plan plus its per-batch-size bindings."""

    def __init__(self, *, label: str, ops: list[PlanOp], slots: list[Slot],
                 output: SlotRef, arena_per_sample: int) -> None:
        self.label = label
        self.ops = ops
        self.slots = slots
        self.output = output
        #: Arena size in float32 elements per batched sample.
        self.arena_per_sample = arena_per_sample
        self._bound: dict[int, BoundPlan] = {}

    # -- introspection ---------------------------------------------------
    def describe(self) -> list[dict]:
        """The flat op list with fused source-layer attribution."""
        return [op.describe() for op in self.ops]

    @property
    def slot_elements_total(self) -> int:
        """Sum of all live slots' sizes — the no-reuse arena baseline."""
        return sum(s.elements for s in self.slots[1:] if s.first_use >= 0)

    # -- execution -------------------------------------------------------
    def _bind(self, n: int) -> BoundPlan:
        arena = np.empty(self.arena_per_sample * n, dtype=np.float32)
        views: list[np.ndarray | None] = [None]  # slot 0 = network input
        for slot in self.slots[1:]:
            if slot.first_use < 0:
                views.append(None)
                continue
            lo = slot.offset * n
            views.append(arena[lo:lo + slot.elements * n]
                         .reshape((n,) + slot.shape))
            if slot.pinned:
                views[-1].fill(0.0)
        holder = InputHolder()
        rt = BindContext(n, views, holder)
        funcs = [op.bind(rt) for op in self.ops]
        return BoundPlan(n=n, holder=holder, funcs=funcs,
                         layers=[op.layer for op in self.ops],
                         output_view=rt.view(self.output), arena=arena)

    def bound_for(self, n: int) -> BoundPlan:
        bound = self._bound.get(n)
        if bound is None:
            bound = self._bind(n)
            if len(self._bound) >= BOUND_CACHE_SIZE:
                # Evict the least recently used batch size.
                self._bound.pop(next(iter(self._bound)))
            self._bound[n] = bound
        else:
            # Refresh LRU order.
            self._bound.pop(n)
            self._bound[n] = bound
        return bound

    def run(self, x: np.ndarray) -> np.ndarray:
        """Execute the plan on one batch; returns a fresh output array."""
        bound = self.bound_for(x.shape[0])
        bound.holder.value = x
        try:
            if profiling.should_sample():
                for fn, layer in zip(bound.funcs, bound.layers):
                    start = time.perf_counter()
                    fn()
                    profiling.layer_timer(layer).observe(
                        time.perf_counter() - start)
            else:
                for fn in bound.funcs:
                    fn()
            return bound.output_view.copy()
        finally:
            bound.holder.value = None
