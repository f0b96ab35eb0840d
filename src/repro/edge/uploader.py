"""Resumable uplink: drains the edge spool over the reliable transport.

The uploader is the bridge between two exactly-once half-promises:

* the **spool** (:mod:`repro.edge.spool`) guarantees a verdict framed to
  disk is never lost — but knows nothing about the network;
* the **reliable sender** (:mod:`repro.streaming.reliability`) retries
  and acks individual packets — but abandons a packet after
  ``max_attempts`` and sheds under buffer pressure.

:class:`EdgeUploader` closes the gap: a spool record is marked uploaded
*only* when the transport acked the packet carrying it (the sender's
``on_ack`` hook), and a packet the sender gave up on (``on_drop``)
simply returns the record to the eligible set, to be re-sent on a later
step.  During an uplink blackhole nothing acks, the in-flight window
fills, and new verdicts accumulate in the spool; on reconnect the
backlog drains oldest-first and the controller dedups by
``(agent_id, sequence)`` — the end-to-end result is exactly-once.

:class:`EdgeUplinkReceiver` is the controller half: it polls the
reliable receiver and offers every arriving record into the serving
tier's :class:`~repro.serving.journal.StoreAndForwardSink`, so edge
verdicts land in the same durable journal / downstream-delivery path as
server-side verdicts.
"""

from __future__ import annotations

from repro.edge.spool import EdgeSpool, SpoolRecord
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.serving.journal import StoreAndForwardSink, VerdictRecord
from repro.streaming.reliability import ReliableReceiver, ReliableSender


class EdgeUploader:
    """Pumps unacknowledged spool records through a reliable sender.

    Args:
        spool: the durable upload queue.
        sender: reliable transport endpoint (its ``on_ack`` / ``on_drop``
            hooks are claimed by the uploader).
        agent_id: source address stamped on uplink packets.
        controller: destination address.
        window: maximum records in flight at once; bounds how much the
            transport buffers and keeps the blackhole backlog on disk,
            where it is durable, instead of in the send buffer, where
            shedding could churn it.
    """

    def __init__(self, spool: EdgeSpool, sender: ReliableSender, *,
                 agent_id: str, controller: str = "controller",
                 window: int = 16,
                 registry: MetricsRegistry | None = None) -> None:
        self.spool = spool
        self.sender = sender
        self.agent_id = agent_id
        self.controller = controller
        self.window = int(window)
        self.drops = 0
        self._inflight: dict[int, int] = {}     # sender seq -> record seq
        self._inflight_records: set[int] = set()
        sender.on_ack = self._on_ack
        sender.on_drop = self._on_drop
        registry = registry or get_registry()
        self._obs_inflight = registry.gauge(
            "edge_upload_inflight", "Spool records riding the uplink",
            agent=agent_id)
        self._obs_uploaded = registry.counter(
            "edge_uploaded_total", "Spool records acked by the controller",
            agent=agent_id)
        self._obs_drops = registry.counter(
            "edge_upload_drops_total",
            "Uplink packets the transport gave up on (record re-queued)",
            agent=agent_id)

    @property
    def inflight(self) -> int:
        """Records currently riding the transport."""
        return len(self._inflight)

    def step(self, now: float) -> int:
        """Process acks/retransmits, then launch new uploads; returns sends.

        Oldest spooled records go first, skipping anything already in
        flight, until the in-flight window is full.  In-flight records
        are pending too, so the oldest ``window`` pending records hold
        every record this step could launch.
        """
        self.sender.step(now)
        sent = 0
        for record in self.spool.pending(self.window):
            if len(self._inflight) >= self.window:
                break
            if record.sequence in self._inflight_records:
                continue
            packet_seq = self.sender.send(self.agent_id, self.controller,
                                          record, now)
            self._inflight[packet_seq] = record.sequence
            self._inflight_records.add(record.sequence)
            sent += 1
        self._obs_inflight.set(len(self._inflight))
        return sent

    # -- transport hooks ---------------------------------------------------
    def _on_ack(self, packet_seq: int) -> None:
        record_seq = self._inflight.pop(packet_seq, None)
        if record_seq is None:
            return
        self._inflight_records.discard(record_seq)
        self.spool.ack(record_seq)
        self._obs_uploaded.inc()
        self._obs_inflight.set(len(self._inflight))

    def _on_drop(self, packet_seq: int, reason: str) -> None:
        del reason  # abandoned and shed packets re-queue identically
        record_seq = self._inflight.pop(packet_seq, None)
        if record_seq is None:
            return
        # The record stays in the spool's pending set; clearing the
        # in-flight mark makes the next step() re-send it fresh.
        self._inflight_records.discard(record_seq)
        self.drops += 1
        self._obs_drops.inc()
        self._obs_inflight.set(len(self._inflight))


def verdict_from_spool(record: SpoolRecord) -> VerdictRecord:
    """Map an uploaded edge record into the serving journal's schema.

    The agent id becomes the session id, so the journal's
    ``(session_id, sequence)`` dedup identity is exactly the spool's
    ``(agent_id, sequence)`` — a record retransmitted over the flaky
    uplink or replayed after a device crash lands downstream once.
    """
    return VerdictRecord(
        session_id=record.agent_id, sequence=record.sequence,
        timestamp=record.timestamp, kind=record.kind,
        predicted=record.predicted, confidence=record.confidence,
        degraded=record.degraded, model_key=f"ota-v{record.model_version}",
        reason="evidence-clip" if record.kind == "clip" else "")


class EdgeUplinkReceiver:
    """Controller-side terminus: uplink packets into the verdict journal.

    Args:
        receiver: reliable transport endpoint for this agent's uplink.
        sink: the serving tier's store-and-forward sink; every arriving
            record is journaled and forwarded through it, giving edge
            verdicts the same durability/delivery path as server-side
            ones.
    """

    def __init__(self, receiver: ReliableReceiver,
                 sink: StoreAndForwardSink, *,
                 registry: MetricsRegistry | None = None) -> None:
        self.receiver = receiver
        self.sink = sink
        self.received = 0
        registry = registry or get_registry()
        self._obs_received = registry.counter(
            "edge_uplink_received_total",
            "Edge records accepted by the controller uplink")

    def poll(self, now: float) -> list[SpoolRecord]:
        """Drain the uplink; journal + forward everything that arrived."""
        records: list[SpoolRecord] = []
        for message in self.receiver.poll(now):
            record = message.payload
            if not isinstance(record, SpoolRecord):
                continue  # not ours; fault-injected garbage is ignored
            records.append(record)
            self.sink.offer(verdict_from_spool(record))
            self.received += 1
            self._obs_received.inc()
        if records:
            self.sink.pump(now)
        return records
