"""Lock-safe, fork-aware metrics primitives.

One registry holds every runtime signal the pipeline emits — reliability
counters from the streaming transport, queue/batch telemetry from the
serving tier, sampled layer timings from the nn runtime — so a
single snapshot answers "what is this process doing" without chasing
per-module stat structs.

Three instrument kinds, deliberately Prometheus-shaped:

* :class:`Counter` — monotonically increasing count (requests, sheds);
* :class:`Gauge` — instantaneous level (queue depth, clock error);
* :class:`Histogram` — fixed-bucket distribution with streaming
  count/sum/min/max and interpolated quantile estimates (p50/p95/p99 of
  stage latencies).  Fixed buckets keep ``observe`` O(log buckets) and
  make merged histograms exact, which the fork-merge path relies on.

Concurrency model: the registry guards its name table with one lock and
every instrument guards its own values with another, so writers on many
threads never corrupt a snapshot and a snapshot never observes a
half-applied histogram update.

Fork model: :func:`get_registry` is pid-checked — the first access in a
forked worker gets a *fresh* registry rather than the parent's inherited
copy, so worker recordings are clean deltas.  Workers report via
:meth:`MetricsRegistry.drain` and parents fold results back in with
:meth:`MetricsRegistry.merge`; merge adds counters and histograms and
takes the max of gauges, all associative, so any merge order yields the
same totals.
"""

from __future__ import annotations

import bisect
import os
import threading

from repro.exceptions import ConfigurationError

#: Default latency buckets in seconds (sub-millisecond to 10 s).
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Buckets for small-integer distributions (batch sizes, queue depths).
COUNT_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

#: Microsecond-scale buckets for shared-memory handoff latencies — a ring
#: publish-to-pickup hop is orders of magnitude below LATENCY_BUCKETS'
#: floor, so it needs its own resolution to be visible at all.
HANDOFF_BUCKETS = (
    0.000001, 0.0000025, 0.000005, 0.00001, 0.000025, 0.00005,
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.05, 0.1,
)

_LabelItems = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> _LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, labels: dict[str, str] | None = None,
                 help: str = "") -> None:
        self.name = name
        self.labels = dict(labels or {})
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the count."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name}: cannot decrease by {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _state(self) -> dict:
        with self._lock:
            return {"value": self._value}

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def _merge(self, state: dict) -> None:
        with self._lock:
            self._value += state["value"]


class Gauge:
    """An instantaneous level that can move both ways."""

    kind = "gauge"

    def __init__(self, name: str, labels: dict[str, str] | None = None,
                 help: str = "") -> None:
        self.name = name
        self.labels = dict(labels or {})
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_max(self, value: float) -> None:
        """Ratchet the gauge upward (peak tracking)."""
        with self._lock:
            if value > self._value:
                self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def _state(self) -> dict:
        with self._lock:
            return {"value": self._value}

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def _merge(self, state: dict) -> None:
        # max is associative and commutative, which keeps fork-merge
        # order-independent; sum would double peaks, last-wins would race.
        with self._lock:
            self._value = max(self._value, state["value"])


class Histogram:
    """Fixed-bucket distribution with streaming aggregates.

    ``buckets`` are inclusive upper bounds; an implicit +inf bucket
    catches the overflow.  Quantiles are estimated by linear
    interpolation inside the bucket where the rank falls, with the
    observed min/max tightening the first and last edges.
    """

    kind = "histogram"

    def __init__(self, name: str, labels: dict[str, str] | None = None,
                 help: str = "",
                 buckets: tuple[float, ...] = LATENCY_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise ConfigurationError(
                f"histogram {name}: buckets must be sorted and unique")
        self.name = name
        self.labels = dict(labels or {})
        self.help = help
        self.buckets = tuple(float(b) for b in buckets)
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.buckets) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated ``q``-th percentile (q in [0, 100])."""
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            return self._percentile_locked(q)

    def _percentile_locked(self, q: float) -> float:
        if self._count == 0:
            return 0.0
        rank = q / 100.0 * self._count
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            if bucket_count == 0:
                continue
            lower = self._edge(index - 1)
            upper = self._edge(index)
            if cumulative + bucket_count >= rank:
                within = max(0.0, rank - cumulative)
                fraction = within / bucket_count
                return lower + fraction * (upper - lower)
            cumulative += bucket_count
        return self._max

    def _edge(self, index: int) -> float:
        """Interpolation edge for bucket ``index``, tightened by min/max."""
        if index < 0:
            return self._min
        if index >= len(self.buckets):
            return self._max
        edge = self.buckets[index]
        # Clamp the outermost edges to what was actually observed so a
        # histogram holding one sample reports that sample, not a bucket
        # boundary far away from it.
        return min(max(edge, self._min), self._max)

    def _state(self) -> dict:
        with self._lock:
            return {
                "buckets": list(self.buckets),
                "counts": list(self._counts),
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
            }

    def _reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.buckets) + 1)
            self._count = 0
            self._sum = 0.0
            self._min = float("inf")
            self._max = float("-inf")

    def _merge(self, state: dict) -> None:
        if list(state["buckets"]) != list(self.buckets):
            raise ConfigurationError(
                f"histogram {self.name}: cannot merge mismatched buckets")
        with self._lock:
            for index, add in enumerate(state["counts"]):
                self._counts[index] += add
            self._count += state["count"]
            self._sum += state["sum"]
            if state["min"] is not None and state["min"] < self._min:
                self._min = state["min"]
            if state["max"] is not None and state["max"] > self._max:
                self._max = state["max"]


class MetricsRegistry:
    """A named collection of instruments with snapshot/merge semantics.

    Instruments are keyed by ``(name, labels)``: asking twice for the
    same key returns the same instrument, so call sites never need to
    cache handles.  Asking for an existing key with a different kind is
    an error — one name, one meaning.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, _LabelItems], object] = {}

    # -- instrument factories --------------------------------------------
    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  buckets: tuple[float, ...] = LATENCY_BUCKETS,
                  **labels: str) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels,
                                   buckets=buckets)

    def _get_or_create(self, cls, name: str, help: str,
                       labels: dict[str, str], **options):
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, labels=labels, help=help, **options)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise ConfigurationError(
                    f"metric {name!r} already registered as {metric.kind}")
            return metric

    # -- inspection ------------------------------------------------------
    def metrics(self) -> list:
        """Every registered instrument (stable name/label order)."""
        with self._lock:
            return [self._metrics[key] for key in sorted(self._metrics)]

    def get(self, name: str, **labels: str):
        """The instrument registered under (name, labels), or ``None``."""
        with self._lock:
            return self._metrics.get((name, _label_key(labels)))

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    # -- snapshot / merge ------------------------------------------------
    def snapshot(self) -> dict:
        """A JSON-safe copy of every instrument's current state."""
        entries = []
        for metric in self.metrics():
            entry = {"kind": metric.kind, "name": metric.name,
                     "labels": dict(metric.labels), "help": metric.help}
            entry.update(metric._state())
            entries.append(entry)
        return {"metrics": entries}

    def drain(self) -> dict:
        """Snapshot, then zero every instrument (worker delta reporting).

        Values recorded between the snapshot and the reset of one
        instrument are lost; drain is meant for single-threaded worker
        processes reporting between batches, where no such window exists.
        """
        snap = self.snapshot()
        for metric in self.metrics():
            metric._reset()
        return snap

    def merge(self, snapshot: dict) -> None:
        """Fold a snapshot (usually a worker's drain) into this registry.

        Counters and histograms add; gauges take the max.  Unknown
        instruments are created on the fly, so a parent can merge from a
        worker that registered metrics the parent never touched.
        """
        for entry in snapshot.get("metrics", []):
            kind, labels = entry["kind"], entry.get("labels", {})
            if kind == "counter":
                metric = self.counter(entry["name"], entry.get("help", ""),
                                      **labels)
            elif kind == "gauge":
                metric = self.gauge(entry["name"], entry.get("help", ""),
                                    **labels)
            elif kind == "histogram":
                metric = self.histogram(entry["name"], entry.get("help", ""),
                                        buckets=tuple(entry["buckets"]),
                                        **labels)
            else:
                raise ConfigurationError(f"unknown metric kind {kind!r}")
            metric._merge(entry)

    def reset(self) -> None:
        """Drop every instrument (test isolation, fork refresh)."""
        with self._lock:
            self._metrics.clear()


# -- process-default registry -------------------------------------------------

_DEFAULT: MetricsRegistry | None = None
_DEFAULT_PID: int | None = None
_DEFAULT_LOCK = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-default registry; fresh after a fork.

    The pid check makes forked executor workers start from an empty
    registry instead of the parent's inherited copy, so their
    :meth:`~MetricsRegistry.drain` reports are true deltas.
    """
    global _DEFAULT, _DEFAULT_PID
    pid = os.getpid()
    if _DEFAULT is None or _DEFAULT_PID != pid:
        with _DEFAULT_LOCK:
            if _DEFAULT is None or _DEFAULT_PID != pid:
                _DEFAULT = MetricsRegistry()
                _DEFAULT_PID = pid
    return _DEFAULT


def reset_registry() -> None:
    """Replace the process-default registry with an empty one."""
    global _DEFAULT, _DEFAULT_PID
    with _DEFAULT_LOCK:
        _DEFAULT = MetricsRegistry()
        _DEFAULT_PID = os.getpid()
