"""In-memory span recording around calls into the program's layers.

A traced run wraps public callables on the benchmark's own objects (an
instance attribute shadows the method, so no program file changes).
Every wrapped call records one span: name, start, end, parent span and
the drive tick it ran in.  Spans stay in memory until the run ends; then
:meth:`SpanRecorder.layer_totals` folds them into per-layer self time
(a span's duration minus the part of it its child spans cover) and
:meth:`SpanRecorder.dump` writes them out.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

_perf = time.perf_counter


class SpanRecorder:
    """Collects nested spans from wrapped calls, single-threaded."""

    def __init__(self) -> None:
        #: One ``[name, start, end, parent, tick, rows]`` list per span.
        self.spans: list[list] = []
        self.tick = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, rows_of=None):
        """``fn`` wrapped so every call records a ``name`` span.

        ``rows_of(args, kwargs)`` optionally gives the batch rows the
        call processed (summed per layer as ``<layer>_rows``).
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            rows = rows_of(args, kwargs) if rows_of is not None else 0
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.tick, rows]
            spans.append(span)
            stack.append(index)
            span[1] = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = _perf()
                stack.pop()

        return traced

    def shim(self, obj, attribute: str, name: str, rows_of=None) -> None:
        """Shadow ``obj.attribute`` with its traced wrapper."""
        setattr(obj, attribute,
                self.wrap(name, getattr(obj, attribute), rows_of))

    @contextmanager
    def patched(self, module, attribute: str, name: str):
        """Trace a module-level function for the duration of the block."""
        original = getattr(module, attribute)
        setattr(module, attribute, self.wrap(name, original))
        try:
            yield
        finally:
            setattr(module, attribute, original)

    # -- aggregation -----------------------------------------------------
    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, rows, inclusive and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "rows": 0, "inclusive_s": 0.0,
                     "self_s": 0.0})
        for index, (name, start, end, _, _, rows) in enumerate(self.spans):
            entry = totals[name]
            entry["calls"] += 1
            entry["rows"] += rows
            entry["inclusive_s"] += end - start
            entry["self_s"] += (end - start) - child_time[index]
        return dict(totals)

    def inclusive_under(self, name: str, ancestor: str) -> float:
        """Inclusive seconds of ``name`` spans nested in ``ancestor``."""
        total = 0.0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            if parent >= 0:
                total += span[2] - span[1]
        return total

    def top_level_seconds(self) -> float:
        """Summed duration of spans with no parent (the attributed time)."""
        return sum(end - start for _, start, end, parent, _, _ in self.spans
                   if parent < 0)

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, tick, rows) in \
                    enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": index, "name": name, "start": start, "end": end,
                     "parent": parent, "tick": tick, "rows": rows},
                    separators=(",", ":")) + "\n")
