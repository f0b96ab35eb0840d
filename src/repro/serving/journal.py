"""Durable verdict journal: an append-only, fsync-batched write-ahead log.

The serving tier's promise is that an admitted verdict request is never
*silently* lost — not when a shard dies, not when the downstream alert
sink is unreachable, not when the serving process itself is SIGKILLed.
The journal is the durability half of that promise:

* every delivered verdict (and every *deferred* request the degradation
  ladder could not answer immediately) is appended to the shared
  write-ahead log (:mod:`repro.wal`) before it counts as handled;
* ``fsync`` is batched (every ``fsync_every`` records) so durability
  costs one disk barrier per batch, not per verdict;
* :func:`replay_journal` reads a journal back after a crash, dropping a
  torn tail and deduplicating retried appends by ``(session_id,
  sequence)``, the (driver, window) identity of a verdict; opening a
  journal cuts that torn tail off in place;
* when the disk itself fails (ENOSPC chaos), appends degrade to an
  in-memory overflow buffer that drains back to disk on recovery, so a
  full disk weakens durability without dropping records.

:class:`StoreAndForwardSink` builds the delivery half on top: verdicts
are journaled first, then forwarded to the downstream sink; when the
sink is unreachable they accumulate as journal-backed pending work and
drain in order on reconnect, deduplicated so a reconnect never
double-alerts.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import ClassVar

from repro.exceptions import ConfigurationError, JournalError
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.wal import Replay, WriteAheadLog, replay

#: Record kinds the journal carries.
KIND_VERDICT = "verdict"
KIND_DEFERRED = "deferred"


@dataclass(frozen=True)
class VerdictRecord:
    """One journaled serving outcome for a (driver, window) id.

    ``kind`` is ``"verdict"`` for a delivered classification and
    ``"deferred"`` for a window the degradation ladder journaled instead
    of answering (no live shard could serve it before its deadline); a
    deferred record keeps the window accounted for — durable, replayable,
    never silently dropped.
    """

    MAGIC: ClassVar[bytes] = b"VJ"

    session_id: str
    sequence: int
    timestamp: float
    kind: str = KIND_VERDICT
    predicted: int = -1
    confidence: float = 0.0
    degraded: bool = False
    model_key: str = ""
    reason: str = ""

    @property
    def record_id(self) -> tuple[str, int]:
        """The (driver, window) identity deduplication keys on."""
        return (self.session_id, self.sequence)

    def to_payload(self) -> bytes:
        """The canonical JSON wire form (sorted keys, compact)."""
        return json.dumps({
            "session_id": self.session_id, "sequence": self.sequence,
            "timestamp": self.timestamp, "kind": self.kind,
            "predicted": self.predicted, "confidence": self.confidence,
            "degraded": self.degraded, "model_key": self.model_key,
            "reason": self.reason,
        }, sort_keys=True, separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_payload(cls, payload: bytes) -> "VerdictRecord":
        data = json.loads(payload.decode("utf-8"))
        return cls(session_id=data["session_id"],
                   sequence=int(data["sequence"]),
                   timestamp=float(data["timestamp"]),
                   kind=data.get("kind", KIND_VERDICT),
                   predicted=int(data.get("predicted", -1)),
                   confidence=float(data.get("confidence", 0.0)),
                   degraded=bool(data.get("degraded", False)),
                   model_key=data.get("model_key", ""),
                   reason=data.get("reason", ""))


def replay_journal(path: str) -> Replay:
    """Crash-safe replay of a journal file (see :func:`repro.wal.replay`)."""
    return replay(path, VerdictRecord)


class VerdictJournal:
    """Append-only verdict WAL with batched fsync and ENOSPC degradation.

    Args:
        path: journal file (created/appended; parent directory must
            exist).
        fsync_every: records between disk barriers.  A crash loses at
            most the unsynced tail *of the file buffer*; records framed
            but unsynced are still usually recovered (the OS flushed
            them), and a torn final frame is detected on replay and cut
            off when the journal is next opened.
        registry: metrics registry for the journal gauges
            (``serving_journal_disk_bytes``, depth, appends, overflow,
            truncated); the process default when omitted.
    """

    def __init__(self, path: str, *, fsync_every: int = 8,
                 registry: MetricsRegistry | None = None) -> None:
        if fsync_every < 1:
            raise ConfigurationError("fsync_every must be >= 1")
        self.path = str(path)
        self.fsync_every = int(fsync_every)
        try:
            self._wal, recovered = WriteAheadLog.open(self.path,
                                                      VerdictRecord)
        except OSError as error:
            raise JournalError(f"cannot open journal {path!r}: {error}") \
                from error
        #: Torn tail frames cut off when this journal was opened.
        self.torn_truncated = recovered.torn
        self._disk_full = False
        self._overflow: list[VerdictRecord] = []
        self._unsynced: list[VerdictRecord] = []
        self.appended = 0
        self.synced = 0
        self.overflowed = 0
        registry = registry or get_registry()
        self._obs_bytes = registry.gauge(
            "serving_journal_disk_bytes",
            "Bytes of verdict journal currently on disk")
        self._obs_depth = registry.gauge(
            "serving_journal_depth",
            "Journaled records not yet delivered downstream")
        self._obs_appends = registry.counter(
            "serving_journal_appends_total",
            "Records appended to the verdict journal")
        self._obs_overflow = registry.counter(
            "serving_journal_overflow_total",
            "Records buffered in memory because the journal disk was full")
        registry.counter(
            "serving_journal_truncated_total",
            "Torn tail frames truncated when the journal was opened",
        ).inc(self.torn_truncated)
        self._obs_bytes.set(self.size_bytes)

    # -- fault injection -------------------------------------------------
    def simulate_disk_full(self, full: bool) -> None:
        """Chaos hook: make appends fail as if the disk had no space."""
        self._disk_full = bool(full)
        if not self._disk_full:
            self._drain_overflow()

    @property
    def disk_full(self) -> bool:
        return self._disk_full

    @property
    def overflow_depth(self) -> int:
        """Records currently parked in memory waiting for disk space."""
        return len(self._overflow)

    # -- appending -------------------------------------------------------
    def append(self, record: VerdictRecord) -> bool:
        """Durably queue one record; returns True if it reached disk.

        With a full (or failing) disk the record is kept in the memory
        overflow buffer instead — weaker durability, zero loss within
        the process — and drains to disk in order once space returns.
        """
        self.appended += 1
        self._obs_appends.inc()
        if not self._disk_full:
            self._drain_overflow()
        # Once disk-full trips (before or during the drain) the new
        # record queues behind the still-parked older records, never
        # jumping them onto disk.
        if self._disk_full or not self._write(record):
            self._overflow.append(record)
            self.overflowed += 1
            self._obs_overflow.inc()
            return False
        if self._wal.unsynced >= self.fsync_every:
            self.sync()
        return True

    def _write(self, record: VerdictRecord) -> bool:
        try:
            self._wal.write(record)
        except OSError:
            self._disk_full = True
            return False
        self._unsynced.append(record)
        self._obs_bytes.set(self.size_bytes)
        return True

    def _drain_overflow(self) -> None:
        while self._overflow and not self._disk_full:
            if not self._write(self._overflow[0]):
                return
            self._overflow.pop(0)
        if self._wal.unsynced >= self.fsync_every:
            self.sync()

    def sync(self) -> None:
        """Flush buffered frames and issue the disk barrier.

        On a flush/fsync failure the records append() acknowledged but
        the barrier never covered move back to the overflow buffer —
        ahead of anything newer — so a later drain rewrites them instead
        of trusting a userspace buffer the kernel may have dropped.  If
        the original bytes did land, replay dedups the rewrite by
        (driver, window) id.
        """
        try:
            self._wal.flush()
        except OSError:
            self._disk_full = True
            if self._unsynced:
                self._overflow[:0] = self._unsynced
                self.overflowed += len(self._unsynced)
                self._obs_overflow.inc(len(self._unsynced))
                self._unsynced.clear()
            return
        self._unsynced.clear()
        self.synced = self.appended - len(self._overflow)

    # -- inspection ------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        """Bytes written to the journal file so far (buffered included)."""
        return self._wal.size_bytes

    def set_depth(self, depth: int) -> None:
        """Publish the undelivered-record depth (set by the owning sink)."""
        self._obs_depth.set(depth)

    def replay(self) -> Replay:
        """Re-read this journal from disk (syncs buffered frames first)."""
        self.sync()
        return replay_journal(self.path)

    def close(self) -> None:
        if not self._wal.closed:
            self.sync()
            self._wal.close()


class StoreAndForwardSink:
    """Journal-backed delivery to a downstream verdict consumer.

    Every offered record is journaled *before* a delivery attempt, then
    forwarded in order.  When the downstream raises (or the sink is
    blackholed by chaos) records accumulate as pending work; ``pump``
    retries on every supervisor step and drains the backlog in order on
    reconnect.  Delivery is deduplicated by (driver, window) id, so a
    window retried through both a failed shard and its adoptee reaches
    the downstream exactly once.

    Args:
        journal: the durable WAL backing the pending queue.
        downstream: callable taking one :class:`VerdictRecord`; raising
            marks the sink unreachable until the next pump.  ``None``
            collects records internally (``delivered`` list).
    """

    def __init__(self, journal: VerdictJournal,
                 downstream=None, *,
                 registry: MetricsRegistry | None = None) -> None:
        self.journal = journal
        self.downstream = downstream
        self.blackholed = False
        self.delivered: list[VerdictRecord] = []
        self._pending: deque[VerdictRecord] = deque()
        self._pending_ids: set[tuple[str, int]] = set()
        self._delivered_ids: set[tuple[str, int]] = set()
        self.duplicates_suppressed = 0
        self.delivery_failures = 0
        registry = registry or get_registry()
        self._obs_delivered = registry.counter(
            "serving_sink_delivered_total",
            "Verdict records delivered to the downstream sink")
        self._obs_failures = registry.counter(
            "serving_sink_failures_total",
            "Delivery attempts the downstream sink refused")

    @property
    def pending(self) -> int:
        """Records journaled but not yet delivered downstream."""
        return len(self._pending)

    def offer(self, record: VerdictRecord) -> None:
        """Journal a record and queue it for downstream delivery."""
        if record.record_id in self._delivered_ids:
            self.duplicates_suppressed += 1
            return
        self.journal.append(record)
        if record.record_id in self._pending_ids:
            self.duplicates_suppressed += 1
            return
        self._pending.append(record)
        self._pending_ids.add(record.record_id)
        self.journal.set_depth(len(self._pending))

    def pump(self, now: float) -> int:
        """Attempt delivery of everything pending; returns records sent."""
        del now  # deliveries are attempted every pump; no wall timers
        sent = 0
        while self._pending:
            # ``offer`` never queues a delivered id, so every pending
            # record is new to the downstream.
            record = self._pending[0]
            if not self._deliver(record):
                break
            self._pending.popleft()
            self._pending_ids.discard(record.record_id)
            self._delivered_ids.add(record.record_id)
            self.delivered.append(record)
            self._obs_delivered.inc()
            sent += 1
        self.journal.set_depth(len(self._pending))
        return sent

    def _deliver(self, record: VerdictRecord) -> bool:
        if self.blackholed:
            self.delivery_failures += 1
            self._obs_failures.inc()
            return False
        if self.downstream is None:
            return True
        try:
            self.downstream(record)
        except Exception:  # noqa: BLE001 — the sink is a fault barrier
            self.delivery_failures += 1
            self._obs_failures.inc()
            return False
        return True
