"""Edge spool policy: ack cursor, compaction and ``last_sequence``.
Framing, replay and crash recovery are tested once for both owners of
the shared log in ``tests/test_wal.py``."""

import dataclasses
import json

import pytest

from repro.edge import EdgeSpool, SpoolRecord, replay_spool
from repro.exceptions import ConfigurationError, SpoolError


def record(sequence, kind="verdict", payload=""):
    return SpoolRecord(agent_id="edge-0", sequence=sequence,
                       timestamp=0.25 * sequence, kind=kind,
                       predicted=sequence % 5, confidence=0.8,
                       model_version=1, payload=payload)


def test_payload_round_trip_preserves_every_field():
    original = SpoolRecord(agent_id="edge-3", sequence=17, timestamp=4.25,
                           kind="clip", predicted=2, confidence=0.5,
                           degraded=True, model_version=4,
                           payload="deadbeef")
    assert SpoolRecord.from_payload(original.to_payload()) == original


def test_clip_wire_size_scales_with_evidence():
    small = record(1, kind="clip", payload="00" * 8)
    large = record(2, kind="clip", payload="00" * 4096)
    assert large.wire_size > small.wire_size + 4000


def test_append_ack_and_depth(tmp_path):
    spool = EdgeSpool.open(str(tmp_path / "s.wal"))
    for i in range(1, 5):
        spool.append(record(i))
    assert spool.depth == 4
    assert [r.sequence for r in spool.pending(2)] == [1, 2]
    spool.ack(2)
    spool.ack(1)
    assert [r.sequence for r in spool.pending()] == [3, 4]
    spool.ack(2)  # idempotent
    assert spool.acked == 2
    spool.close()


def test_reopen_resumes_only_unacked(tmp_path):
    path = str(tmp_path / "s.wal")
    spool = EdgeSpool.open(path)
    for i in range(1, 6):
        spool.append(record(i))
    spool.ack(1)
    spool.ack(3)  # out-of-order ack lands in the cursor's extra set
    spool.sync()
    del spool  # simulate a crash: no close(), no compaction
    reopened = EdgeSpool.open(path)
    assert [r.sequence for r in reopened.pending()] == [2, 4, 5]
    reopened.close()


def test_last_sequence_recovers_across_reopen(tmp_path):
    path = str(tmp_path / "s.wal")
    spool = EdgeSpool.open(path)
    assert spool.last_sequence == 0
    for i in range(1, 6):
        spool.append(record(i))
    spool.ack(5)  # out-of-order: the high-water ack sits in the extra set
    assert spool.last_sequence == 5
    spool.sync()
    del spool  # crash: no close(), no compaction
    reopened = EdgeSpool.open(path)
    assert reopened.last_sequence == 5
    reopened.close()


def test_last_sequence_survives_compaction_of_fully_acked_spool(tmp_path):
    path = str(tmp_path / "s.wal")
    spool = EdgeSpool.open(path)
    for i in range(1, 4):
        spool.append(record(i))
    for i in range(1, 4):
        spool.ack(i)
    spool.close()  # compacts: the WAL itself is now empty
    reopened = EdgeSpool.open(path)
    # Only the preserved ack cursor knows sequences 1-3 ever existed.
    assert reopened.last_sequence == 3
    assert reopened.pending() == []
    reopened.close()


def test_compact_drops_acked_history(tmp_path):
    path = str(tmp_path / "s.wal")
    spool = EdgeSpool.open(path)
    for i in range(1, 9):
        spool.append(record(i))
    for i in range(1, 7):
        spool.ack(i)
    spool.compact()
    replay = replay_spool(path)
    assert [r.sequence for r in replay.records] == [7, 8]
    assert spool.depth == 2
    spool.close()


def test_compact_preserves_ack_cursor(tmp_path):
    path = str(tmp_path / "s.wal")
    spool = EdgeSpool.open(path)
    for i in range(1, 9):
        spool.append(record(i))
    for i in range(1, 7):
        spool.ack(i)
    spool.compact()
    spool.ack(7)
    spool.ack(8)
    # Surviving records keep their original sequences, so post-compaction
    # acks must still collapse into the contiguous cursor instead of
    # accreting in the extra set forever.
    spool.sync()  # acks reach the cursor file at the disk barrier
    with open(path + ".cursor", encoding="utf-8") as handle:
        cursor = json.load(handle)
    assert cursor == {"acked_through": 8, "extra": []}
    spool.close()


def read_cursor(path):
    with open(path + ".cursor", encoding="utf-8") as handle:
        return json.load(handle)


def count_cursor_writes(spool, monkeypatch):
    writes = []
    save = spool._save_cursor

    def counting(**options):
        writes.append(options)
        return save(**options)

    monkeypatch.setattr(spool, "_save_cursor", counting)
    return writes


def test_ack_writes_cursor_only_at_disk_barriers(tmp_path, monkeypatch):
    spool = EdgeSpool.open(str(tmp_path / "s.wal"), fsync_every=8)
    writes = count_cursor_writes(spool, monkeypatch)
    for i in range(1, 65):
        spool.append(record(i))
        spool.ack(i)
    assert spool.depth == 0
    # One write per barrier that follows an ack: the 8 append barriers,
    # then at most one more for the acks after the last of them.
    spool.sync()
    assert len(writes) <= 9
    barrier_writes = len(writes)
    spool.sync()  # no ack since the last barrier: nothing to write
    assert len(writes) == barrier_writes
    spool.close()
    assert read_cursor(spool.path) == {"acked_through": 64, "extra": []}


def test_crash_between_barriers_reuploads_unpersisted_acks(tmp_path):
    path = str(tmp_path / "s.wal")
    spool = EdgeSpool.open(path)
    for i in range(1, 9):
        spool.append(record(i))
    for i in range(1, 6):
        spool.ack(i)
    spool.sync()
    spool.ack(6)
    spool.ack(7)
    assert spool.last_sequence == 8
    del spool  # crash before the next barrier: acks 6 and 7 never landed
    reopened = EdgeSpool.open(path)
    # Re-uploaded (the controller dedups them), not lost.
    assert [r.sequence for r in reopened.pending()] == [6, 7, 8]
    assert reopened.last_sequence == 8
    reopened.close()


def test_compaction_makes_cursor_durable_before_rewrite(tmp_path,
                                                        monkeypatch):
    path = str(tmp_path / "s.wal")
    spool = EdgeSpool.open(path)
    for i in range(1, 6):
        spool.append(record(i))
    for i in (1, 2, 3, 5):
        spool.ack(i)
    writes = count_cursor_writes(spool, monkeypatch)
    rewrite = spool._wal.rewrite
    seen = []

    def checked_rewrite(records):
        # By the time acked records leave the WAL, the cursor on disk
        # must already cover every ack.
        seen.append(read_cursor(path))
        return rewrite(records)

    monkeypatch.setattr(spool._wal, "rewrite", checked_rewrite)
    spool.compact()
    assert seen == [{"acked_through": 3, "extra": [5]}]
    assert writes == [{"durable": True}]
    assert [r.sequence for r in replay_spool(path).records] == [4]
    spool.close()


def test_compact_then_crash_keeps_last_sequence(tmp_path):
    path = str(tmp_path / "s.wal")
    spool = EdgeSpool.open(path)
    for i in range(1, 4):
        spool.append(record(i))
        spool.ack(i)
    spool.compact()
    del spool  # crash after compaction, without close()
    reopened = EdgeSpool.open(path)
    assert reopened.last_sequence == 3
    assert reopened.pending() == []
    reopened.close()


def test_duplicate_append_keeps_first_and_compacts_once(tmp_path):
    path = str(tmp_path / "s.wal")
    spool = EdgeSpool.open(path)
    first = record(1)
    spool.append(first)
    spool.append(record(2))
    spool.append(dataclasses.replace(first, confidence=0.1))  # a retry
    assert spool.pending() == [first, record(2)]
    spool.close()
    replayed = replay_spool(path)
    assert replayed.records == [first, record(2)]
    assert replayed.duplicates == 0  # compaction wrote record 1 once
    reopened = EdgeSpool.open(path)
    reopened.ack(1)
    assert [r.sequence for r in reopened.pending()] == [2]
    reopened.close()


def test_torn_cursor_degrades_to_reupload(tmp_path):
    path = str(tmp_path / "s.wal")
    spool = EdgeSpool.open(path)
    spool.append(record(1))
    spool.ack(1)
    spool.sync()
    with open(path + ".cursor", "w", encoding="utf-8") as handle:
        handle.write("{torn json")
    del spool
    reopened = EdgeSpool.open(path)
    # A broken cursor costs a deduplicated re-upload, never a lost record.
    assert [r.sequence for r in reopened.pending()] == [1]
    reopened.close()


def test_invalid_config_and_unwritable_path():
    with pytest.raises(ConfigurationError):
        EdgeSpool.open("/tmp/x.wal", fsync_every=0)
    with pytest.raises(SpoolError):
        EdgeSpool.open("/nonexistent-dir/spool.wal")
