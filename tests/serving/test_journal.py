"""Verdict journal policy: fsync batching, disk-full degradation, and
store-and-forward delivery.  Framing, replay and crash recovery are
tested once for both owners of the shared log in ``tests/test_wal.py``."""

import os

import pytest

from repro.exceptions import JournalError
from repro.serving import (
    StoreAndForwardSink,
    VerdictJournal,
    VerdictRecord,
    replay_journal,
)
from repro.serving.journal import KIND_DEFERRED


def record(sequence, session_id="drv-0", kind="verdict"):
    return VerdictRecord(session_id=session_id, sequence=sequence,
                         timestamp=0.25 * sequence, kind=kind,
                         predicted=sequence % 5, confidence=0.9,
                         model_key="base")


def test_round_trip(tmp_path):
    path = str(tmp_path / "journal.wal")
    journal = VerdictJournal(path, fsync_every=2)
    originals = [record(i) for i in range(5)]
    for item in originals:
        journal.append(item)
    journal.close()
    replay = replay_journal(path)
    assert replay.records == originals
    assert replay.torn == 0
    assert replay.duplicates == 0
    assert replay.bytes_read == os.path.getsize(path)


def test_payload_round_trip_preserves_every_field():
    original = VerdictRecord(session_id="drv-3", sequence=17,
                             timestamp=4.25, kind=KIND_DEFERRED,
                             predicted=2, confidence=0.5, degraded=True,
                             model_key="privacy-high", reason="shard died")
    assert VerdictRecord.from_payload(original.to_payload()) == original


def test_fsync_batches(tmp_path, monkeypatch):
    syncs = []
    monkeypatch.setattr(os, "fsync", lambda fd: syncs.append(fd))
    journal = VerdictJournal(str(tmp_path / "j.wal"), fsync_every=4)
    for i in range(10):
        journal.append(record(i))
    # 10 appends at fsync_every=4 -> barriers after records 4 and 8.
    assert len(syncs) == 2
    journal.close()
    assert len(syncs) == 3  # close syncs the tail


def test_replay_of_missing_file_is_empty(tmp_path):
    replay = replay_journal(str(tmp_path / "never-written.wal"))
    assert replay.records == [] and replay.torn == 0


def test_unwritable_path_raises():
    with pytest.raises(JournalError):
        VerdictJournal("/nonexistent-dir/journal.wal")


def test_disk_full_overflows_to_memory_and_drains(tmp_path):
    path = str(tmp_path / "j.wal")
    journal = VerdictJournal(path, fsync_every=1)
    journal.append(record(0))
    journal.simulate_disk_full(True)
    assert not journal.append(record(1))
    assert not journal.append(record(2))
    assert journal.overflow_depth == 2
    assert journal.overflowed == 2
    on_disk = journal.size_bytes
    journal.simulate_disk_full(False)  # space returns: overflow drains
    assert journal.overflow_depth == 0
    assert journal.size_bytes > on_disk
    journal.close()
    replay = replay_journal(path)
    assert [r.sequence for r in replay.records] == [0, 1, 2]


def test_drain_tripping_disk_full_keeps_new_record_in_order(tmp_path,
                                                            monkeypatch):
    """When the overflow drain inside append() trips disk-full, the new
    record must park behind the still-buffered older records — never
    reach the disk ahead of them."""
    path = str(tmp_path / "j.wal")
    journal = VerdictJournal(path, fsync_every=100)
    journal.simulate_disk_full(True)
    assert not journal.append(record(0))  # parked in overflow
    journal._disk_full = False            # space seems to return...
    real_write = journal._write
    tripped = []

    def flaky(item):
        if not tripped:                   # ...but the drain write trips
            tripped.append(item)
            journal._disk_full = True
            return False
        return real_write(item)

    monkeypatch.setattr(journal, "_write", flaky)
    assert not journal.append(record(1))  # must park, not jump to disk
    assert journal.overflow_depth == 2
    journal.simulate_disk_full(False)     # full recovery drains in order
    journal.close()
    assert [r.sequence for r in replay_journal(path).records] == [0, 1]


def test_sync_failure_repatriates_acked_records_to_overflow(tmp_path,
                                                            monkeypatch):
    """Records append() acknowledged but the barrier never covered must
    move to the overflow buffer on fsync failure, not silently ride in a
    userspace buffer the kernel may have dropped."""
    path = str(tmp_path / "j.wal")
    journal = VerdictJournal(path, fsync_every=100)
    for i in range(3):
        assert journal.append(record(i))  # acked, barrier still pending

    def broken(fd):
        raise OSError(5, "I/O error")

    monkeypatch.setattr(os, "fsync", broken)
    journal.sync()
    assert journal.disk_full
    assert journal.overflow_depth == 3    # acked records not abandoned
    monkeypatch.undo()                    # the disk heals
    journal.simulate_disk_full(False)
    journal.close()
    replay = replay_journal(path)
    assert [r.sequence for r in replay.records] == [0, 1, 2]
    # flush() had landed the originals, so the rewrite duplicates them;
    # replay dedups by (driver, window) id exactly as documented.
    assert replay.duplicates == 3


# -- store-and-forward sink -----------------------------------------------


def test_sink_delivers_in_order(tmp_path):
    journal = VerdictJournal(str(tmp_path / "j.wal"))
    sink = StoreAndForwardSink(journal)
    for i in range(3):
        sink.offer(record(i))
    assert sink.pump(0.0) == 3
    assert [r.sequence for r in sink.delivered] == [0, 1, 2]
    assert sink.pending == 0


def test_sink_buffers_through_blackhole_and_drains(tmp_path):
    journal = VerdictJournal(str(tmp_path / "j.wal"))
    sink = StoreAndForwardSink(journal)
    sink.offer(record(0))
    sink.pump(0.0)
    sink.blackholed = True
    for i in range(1, 4):
        sink.offer(record(i))
        sink.pump(float(i))
    assert sink.pending == 3
    assert sink.delivery_failures >= 3
    assert len(sink.delivered) == 1
    sink.blackholed = False
    assert sink.pump(5.0) == 3  # backlog drains in order on reconnect
    assert [r.sequence for r in sink.delivered] == [0, 1, 2, 3]


def test_sink_never_double_delivers(tmp_path):
    journal = VerdictJournal(str(tmp_path / "j.wal"))
    downstream: list[VerdictRecord] = []
    sink = StoreAndForwardSink(journal, downstream.append)
    sink.offer(record(7))
    sink.pump(0.0)
    sink.offer(record(7))  # retried through a second shard
    sink.pump(1.0)
    assert len(downstream) == 1
    assert sink.duplicates_suppressed == 1


def test_sink_dedups_while_pending(tmp_path):
    journal = VerdictJournal(str(tmp_path / "j.wal"))
    sink = StoreAndForwardSink(journal)
    sink.blackholed = True
    sink.offer(record(7))
    sink.offer(record(7))
    assert sink.pending == 1
    sink.blackholed = False
    sink.pump(0.0)
    assert len(sink.delivered) == 1


def test_sink_suppresses_duplicates_in_a_blackhole_backlog(tmp_path):
    """Duplicates offered into a blackholed backlog are journaled (the
    journal is written before the dedup check), suppressed and counted;
    on reconnect every record is delivered once, in order."""
    path = str(tmp_path / "j.wal")
    journal = VerdictJournal(path)
    downstream: list[VerdictRecord] = []
    sink = StoreAndForwardSink(journal, downstream.append)
    sink.blackholed = True
    for i in (0, 1, 2, 1, 3, 0, 2, 4):
        sink.offer(record(i))
        sink.pump(float(i))
    assert sink.pending == 5
    assert sink.duplicates_suppressed == 3
    sink.blackholed = False
    assert sink.pump(9.0) == 5
    assert [r.sequence for r in downstream] == [0, 1, 2, 3, 4]
    assert sink.pending == 0
    sink.offer(record(3))  # a late retry of a delivered record
    assert sink.pump(10.0) == 0
    assert sink.duplicates_suppressed == 4
    assert len(downstream) == 5
    journal.close()
    replay = replay_journal(path)
    assert [r.sequence for r in replay.records] == [0, 1, 2, 3, 4]
    assert replay.duplicates == 3


def test_sink_failing_downstream_is_a_fault_barrier(tmp_path):
    journal = VerdictJournal(str(tmp_path / "j.wal"))
    calls = []

    def flaky(item):
        calls.append(item)
        if len(calls) == 1:
            raise ConnectionError("sink down")

    sink = StoreAndForwardSink(journal, flaky)
    sink.offer(record(0))
    assert sink.pump(0.0) == 0  # first attempt raises -> stays pending
    assert sink.pending == 1
    assert sink.pump(1.0) == 1  # retried on the next pump
    assert [r.sequence for r in sink.delivered] == [0]
