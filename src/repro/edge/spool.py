"""On-device store-and-forward spool: verdicts survive a dead uplink.

The edge agent's contract mirrors the serving journal's: a verdict the
device produced is never *silently* lost — not when the uplink is
blackholed for a minute, not when the agent process is SIGKILLed
mid-append.  The spool is a record schema and an upload policy over the
shared write-ahead log (:mod:`repro.wal`) the serving journal also uses:

* every verdict (and every evidence clip) is framed to disk *before* an
  upload is attempted;
* an **ack cursor** sidecar records how far the controller has
  acknowledged; on restart only unacknowledged records re-enter the
  upload queue.  An ack is an in-memory update: the cursor file is
  written only at the spool's disk barrier (every ``fsync_every``
  appends, :meth:`EdgeSpool.sync`, compaction) and only when something
  was acked since it was last written, so a crash re-uploads at most one
  barrier interval of acks, which the controller dedups by record id —
  a duplicate upload, never a lost one;
* compaction writes the cursor durably (fsynced) *before* it rewrites
  the WAL without the acked records: with the order reversed, a crash
  in between would leave a stale cursor over a WAL that no longer holds
  the acked records, and :attr:`EdgeSpool.last_sequence` would regress;
* :meth:`EdgeSpool.open` replays the WAL on startup, truncating a torn
  tail in place; recovery also restores :attr:`EdgeSpool.last_sequence`,
  the highest sequence ever spooled *or* acknowledged, so a restarted
  agent resumes numbering past its previous incarnation — a reused
  sequence would be deduplicated downstream, i.e. a verdict silently
  lost.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import islice
from typing import ClassVar

from repro.exceptions import ConfigurationError, SpoolError
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.wal import Replay, WriteAheadLog, replay

#: Record kinds the spool carries.
KIND_VERDICT = "verdict"
KIND_CLIP = "clip"


@dataclass(frozen=True)
class SpoolRecord:
    """One spooled upload: a local verdict or an evidence clip.

    ``sequence`` is the agent-scoped upload sequence (one space across
    both kinds); ``(agent_id, sequence)`` is the identity the controller
    dedups on, so a record replayed after a crash or retransmitted over
    a flaky link lands downstream exactly once.
    """

    MAGIC: ClassVar[bytes] = b"ES"

    agent_id: str
    sequence: int
    timestamp: float
    kind: str = KIND_VERDICT
    predicted: int = -1
    confidence: float = 0.0
    degraded: bool = False
    model_version: int = 0
    payload: str = ""     #: hex-encoded evidence bytes for clip records

    @property
    def record_id(self) -> tuple[str, int]:
        return (self.agent_id, self.sequence)

    @property
    def wire_size(self) -> int:
        """Uplink cost: the framed JSON body plus an envelope header.

        Clip records carry their evidence bytes inline, so a clip's wire
        size scales with the clip — the bandwidth model charges for it.
        """
        return len(self.to_payload()) + 24

    def to_payload(self) -> bytes:
        return json.dumps({
            "agent_id": self.agent_id, "sequence": self.sequence,
            "timestamp": self.timestamp, "kind": self.kind,
            "predicted": self.predicted, "confidence": self.confidence,
            "degraded": self.degraded, "model_version": self.model_version,
            "payload": self.payload,
        }, sort_keys=True, separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_payload(cls, payload: bytes) -> "SpoolRecord":
        data = json.loads(payload.decode("utf-8"))
        return cls(agent_id=data["agent_id"],
                   sequence=int(data["sequence"]),
                   timestamp=float(data["timestamp"]),
                   kind=data.get("kind", KIND_VERDICT),
                   predicted=int(data.get("predicted", -1)),
                   confidence=float(data.get("confidence", 0.0)),
                   degraded=bool(data.get("degraded", False)),
                   model_version=int(data.get("model_version", 0)),
                   payload=data.get("payload", ""))


def replay_spool(path: str) -> Replay:
    """Crash-safe replay of a spool file (see :func:`repro.wal.replay`)."""
    return replay(path, SpoolRecord)


class EdgeSpool:
    """Durable upload queue for one edge agent.

    Args:
        path: WAL file (a ``<path>.cursor`` sidecar tracks acks).
        fsync_every: records between disk barriers.
        registry: metrics registry; process default when omitted.

    Use :meth:`open` to construct: it recovers the WAL first (truncating
    any torn tail) and seeds the pending queue with every record the
    cursor has not acknowledged.
    """

    def __init__(self, path: str, *, fsync_every: int = 8,
                 registry: MetricsRegistry | None = None) -> None:
        if fsync_every < 1:
            raise ConfigurationError("fsync_every must be >= 1")
        self.path = str(path)
        self.cursor_path = self.path + ".cursor"
        self.fsync_every = int(fsync_every)
        self.appended = 0
        self.acked = 0
        #: Highest sequence ever spooled or acked; seed new sequences
        #: past this so a restart never reuses one.
        self.last_sequence = 0
        # Unacknowledged records by sequence, in append order.
        self._pending: dict[int, SpoolRecord] = {}
        # Sequences are 1-based; ``_acked_through == 0`` means nothing
        # acked yet, and out-of-order acks wait in the extra set until
        # the gap below them closes.
        self._acked_through = 0
        self._acked_extra: set[int] = set()
        # Acked since the cursor file was last written.
        self._cursor_dirty = False
        registry = registry or get_registry()
        self._obs_depth = registry.gauge(
            "edge_spool_depth", "Spooled records awaiting upload ack")
        self._obs_bytes = registry.gauge(
            "edge_spool_disk_bytes", "Bytes of edge spool on disk")
        self._obs_appends = registry.counter(
            "edge_spool_appends_total", "Records appended to the spool")
        self._obs_acked = registry.counter(
            "edge_spool_acked_total", "Spooled records acknowledged")
        self._load_cursor()
        try:
            self._wal, recovered = WriteAheadLog.open(self.path, SpoolRecord)
        except OSError as error:
            raise SpoolError(
                f"cannot open spool {path!r}: {error}") from error
        #: Torn tail frames cut off when this spool was opened.
        self.torn_truncated = recovered.torn
        registry.counter(
            "edge_spool_truncated_total",
            "Torn tail frames truncated during spool recovery",
        ).inc(self.torn_truncated)
        self._recover(recovered)
        self._publish()

    @classmethod
    def open(cls, path: str, **options) -> "EdgeSpool":
        """Open (and crash-recover) the spool at ``path``."""
        return cls(path, **options)

    # -- recovery ----------------------------------------------------------
    def _recover(self, recovered: Replay) -> None:
        for record in recovered.records:
            if not self._is_acked(record.sequence):
                self._pending.setdefault(record.sequence, record)
        # The cursor can sit above every surviving record (a compacted,
        # fully-acked spool has an empty WAL), so the high-water mark is
        # the max across both the WAL and the ack state.
        self.last_sequence = max(
            self.last_sequence, self._acked_through,
            max(self._acked_extra, default=0),
            max((r.sequence for r in recovered.records), default=0))

    def _load_cursor(self) -> None:
        if not os.path.exists(self.cursor_path):
            return
        try:
            with open(self.cursor_path, encoding="utf-8") as handle:
                data = json.load(handle)
            self._acked_through = max(0, int(data.get("acked_through", 0)))
            self._acked_extra = {int(s) for s in data.get("extra", [])}
        except (OSError, ValueError):
            # A torn cursor means re-uploading at most everything on
            # disk; the controller dedups, so safety beats freshness.
            self._acked_through = 0
            self._acked_extra = set()

    def _save_cursor(self, *, durable: bool = False) -> bool:
        """Replace the cursor file; ``durable`` fsyncs it first.

        Returns whether the cursor landed.
        """
        payload = json.dumps({"acked_through": self._acked_through,
                              "extra": sorted(self._acked_extra)})
        tmp = self.cursor_path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(payload)
                if durable:
                    handle.flush()
                    os.fsync(handle.fileno())
            os.replace(tmp, self.cursor_path)
        except OSError:
            return False  # a stale cursor costs deduplicated re-uploads
        self._cursor_dirty = False
        return True

    def _is_acked(self, sequence: int) -> bool:
        return sequence <= self._acked_through \
            or sequence in self._acked_extra

    # -- appending ---------------------------------------------------------
    def append(self, record: SpoolRecord) -> None:
        """Durably queue one record for upload."""
        if self._is_acked(record.sequence):
            return
        try:
            self._wal.write(record)
        except OSError as error:
            raise SpoolError(f"spool append failed: {error}") from error
        self.appended += 1
        self.last_sequence = max(self.last_sequence, record.sequence)
        self._obs_appends.inc()
        if self._wal.unsynced >= self.fsync_every:
            self.sync()
        # A duplicate append keeps the first record, as replay does.
        self._pending.setdefault(record.sequence, record)
        self._publish()

    def sync(self) -> None:
        """The disk barrier: write the ack cursor if anything was acked
        since it was last written, then flush and fsync buffered frames.

        Either order is safe (an ack only ever names a record already
        spooled); renaming the cursor ahead of the fsync measured
        cheaper than after it.
        """
        if self._cursor_dirty:
            self._save_cursor()
        self._flush_wal()

    def _flush_wal(self) -> None:
        try:
            self._wal.flush()
        except OSError:
            pass  # replay-side CRC detects whatever did not land

    # -- upload queue ------------------------------------------------------
    @property
    def depth(self) -> int:
        """Records spooled but not yet acknowledged."""
        return len(self._pending)

    def pending(self, limit: int | None = None) -> list[SpoolRecord]:
        """The oldest unacknowledged records, in append order."""
        return list(islice(self._pending.values(), limit))

    def ack(self, sequence: int) -> None:
        """The controller acknowledged the record carrying ``sequence``.

        In memory only; the next disk barrier persists the cursor.
        """
        if self._is_acked(sequence):
            return
        self._acked_extra.add(sequence)
        while self._acked_through + 1 in self._acked_extra:
            self._acked_through += 1
            self._acked_extra.discard(self._acked_through)
        self._pending.pop(sequence, None)
        self.acked += 1
        self._obs_acked.inc()
        self._cursor_dirty = True
        self._publish()

    # -- maintenance -------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        return self._wal.size_bytes

    def compact(self) -> None:
        """Rewrite the WAL keeping only unacknowledged records.

        Called on clean shutdown so an agent that has been online for a
        long drive does not replay megabytes of acked history next boot.
        """
        self._flush_wal()
        # The cursor must be durable before the acked records leave the
        # WAL, or a crash in between regresses ``last_sequence``; when
        # it cannot be written, keep the full WAL.  The cursor itself
        # survives compaction untouched: surviving records keep their
        # original (high) sequences, so resetting it would strand every
        # future ack in the extra set forever.
        if self._save_cursor(durable=True):
            self._wal.rewrite(self._pending.values())
        self._publish()

    def close(self) -> None:
        if not self._wal.closed:
            self.compact()
            self._wal.close()

    def _publish(self) -> None:
        self._obs_depth.set(len(self._pending))
        self._obs_bytes.set(self.size_bytes)
