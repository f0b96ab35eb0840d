"""The shared write-ahead log under both of its owners.

Framing, crash-safe replay, torn-tail recovery on open, dedup and a
SIGKILL mid-append, for the verdict journal and the edge spool alike,
plus Hypothesis properties over both record schemas: a crash cut at
every byte offset, random bit flips, duplicate appends.
"""

import dataclasses
import os
import signal
import subprocess
import sys
import tempfile
import time
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edge.spool import EdgeSpool, SpoolRecord, replay_spool
from repro.serving.journal import (
    KIND_DEFERRED,
    KIND_VERDICT,
    VerdictJournal,
    VerdictRecord,
    replay_journal,
)
from repro.wal import WriteAheadLog, frame, replay

ROOT = os.path.join(os.path.dirname(__file__), "..")


def verdict(sequence):
    return VerdictRecord(session_id="drv-0", sequence=sequence,
                         timestamp=0.25 * sequence, predicted=sequence % 5,
                         confidence=0.9, model_key="base")


def spooled(sequence):
    return SpoolRecord(agent_id="edge-0", sequence=sequence,
                       timestamp=0.25 * sequence, predicted=sequence % 5,
                       confidence=0.8, model_version=1)


@dataclasses.dataclass(frozen=True)
class Owner:
    """One owner of the log: how to open it, read it back, make records."""

    open: Callable
    replay: Callable
    record: Callable


OWNERS = {
    "journal": Owner(VerdictJournal, replay_journal, verdict),
    "spool": Owner(EdgeSpool.open, replay_spool, spooled),
}


@pytest.fixture(params=sorted(OWNERS))
def owner(request):
    return OWNERS[request.param]


def sequences(replayed):
    return [record.sequence for record in replayed.records]


def test_torn_tail_is_truncated_on_open(owner, tmp_path):
    """A torn tail is dropped on replay and cut off on reopen, so the
    records appended after the restart replay too."""
    path = str(tmp_path / "log.wal")
    log = owner.open(path)
    for i in range(1, 4):
        log.append(owner.record(i))
    log.close()
    clean_size = os.path.getsize(path)
    torn = frame(owner.record(4))
    with open(path, "ab") as handle:
        handle.write(torn[:len(torn) // 2])  # SIGKILL mid-write
    replayed = owner.replay(path)
    assert sequences(replayed) == [1, 2, 3]
    assert replayed.torn == 1
    reopened = owner.open(path)
    assert reopened.torn_truncated == 1
    assert os.path.getsize(path) == clean_size
    for i in range(5, 9):
        reopened.append(owner.record(i))
    reopened.close()
    replayed = owner.replay(path)
    assert sequences(replayed) == [1, 2, 3, 5, 6, 7, 8]
    assert replayed.torn == 0


def test_replay_stops_at_corrupt_crc(owner, tmp_path):
    path = str(tmp_path / "log.wal")
    log = owner.open(path)
    log.append(owner.record(1))
    log.close()
    blob = bytearray(open(path, "rb").read())
    blob[-1] ^= 0xFF  # flip one payload byte; CRC must catch it
    with open(path, "wb") as handle:
        handle.write(blob)
    replayed = owner.replay(path)
    assert replayed.records == []
    assert replayed.torn == 1


def test_replay_dedups_by_record_id(owner, tmp_path):
    path = str(tmp_path / "log.wal")
    log = owner.open(path)
    log.append(owner.record(1))
    log.append(owner.record(2))
    log.append(owner.record(1))  # a retried or crash-replayed append
    log.sync()  # replay the log as written, before close() may compact it
    replayed = owner.replay(path)
    assert sequences(replayed) == [1, 2]
    assert replayed.duplicates == 1
    assert replayed.ids == {owner.record(1).record_id,
                            owner.record(2).record_id}
    log.close()
    assert sequences(owner.replay(path)) == [1, 2]


_WRITER = (
    "import sys\n"
    "sys.path[:0] = [sys.argv[3] + '/src', sys.argv[3]]\n"
    "from tests.test_wal import OWNERS\n"
    "owner = OWNERS[sys.argv[1]]\n"
    "log = owner.open(sys.argv[2], fsync_every=4)\n"
    "i = 0\n"
    "while True:\n"
    "    i += 1\n"
    "    log.append(owner.record(i))\n"
)


@pytest.mark.parametrize("name", sorted(OWNERS))
def test_sigkill_mid_append_truncates_and_resumes(name, tmp_path):
    """A writer SIGKILLed mid-append leaves a log whose torn tail is
    detected, cut off on the next open, and whose surviving prefix is
    gapless and duplicate-free."""
    owner = OWNERS[name]
    path = str(tmp_path / "crash.wal")
    proc = subprocess.Popen([sys.executable, "-c", _WRITER, name, path,
                             os.path.abspath(ROOT)])
    try:
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if os.path.exists(path) and os.path.getsize(path) > 4096:
                break
            time.sleep(0.01)
        else:
            pytest.fail("log writer never produced data")
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    raw = owner.replay(path)
    assert raw.torn <= 1  # at most the one frame the kill interrupted
    log = owner.open(path)
    assert log.torn_truncated == raw.torn
    assert os.path.getsize(path) == raw.bytes_read
    log.close()
    clean = owner.replay(path)
    assert len(clean.records) > 0
    assert sequences(clean) == list(range(1, len(clean.records) + 1))
    assert clean.torn == 0 and clean.duplicates == 0


# -- the frame format, pinned -------------------------------------------


def test_frame_bytes_are_pinned():
    """The on-disk bytes of one record of each schema, as first shipped.

    ``SpoolRecord.wire_size`` feeds the uplink bandwidth model and old
    journals and spools must stay readable, so no byte may move.
    """
    journal_record = VerdictRecord(
        session_id="drv-3", sequence=17, timestamp=4.25, kind=KIND_DEFERRED,
        predicted=2, confidence=0.5, degraded=True,
        model_key="privacy-high", reason="shard died")
    spool_record = SpoolRecord(
        agent_id="edge-3", sequence=17, timestamp=4.25, kind="clip",
        predicted=2, confidence=0.5, degraded=True, model_version=4,
        payload="deadbeef")
    assert frame(journal_record) == bytes.fromhex("564aa700000058a187a0") + (
        b'{"confidence":0.5,"degraded":true,"kind":"deferred",'
        b'"model_key":"privacy-high","predicted":2,"reason":"shard died",'
        b'"sequence":17,"session_id":"drv-3","timestamp":4.25}')
    assert frame(spool_record) == bytes.fromhex("455398000000ed8d52d0") + (
        b'{"agent_id":"edge-3","confidence":0.5,"degraded":true,'
        b'"kind":"clip","model_version":4,"payload":"deadbeef",'
        b'"predicted":2,"sequence":17,"timestamp":4.25}')


# -- properties over both record schemas --------------------------------

# Small id spaces so that generated lists collide on record ids often.
_ids = st.sampled_from(["a", "b"])
_sequences = st.integers(0, 2)
_text = st.text(max_size=6)
_floats = st.floats(allow_nan=False, allow_infinity=False)

SCHEMAS = {
    "verdict": st.builds(
        VerdictRecord, session_id=_ids, sequence=_sequences,
        timestamp=_floats, kind=st.sampled_from([KIND_VERDICT,
                                                 KIND_DEFERRED]),
        predicted=st.integers(-1, 5), confidence=_floats,
        degraded=st.booleans(), model_key=_text, reason=_text),
    "spool": st.builds(
        SpoolRecord, agent_id=_ids, sequence=_sequences, timestamp=_floats,
        kind=st.sampled_from(["verdict", "clip"]),
        predicted=st.integers(-1, 5), confidence=_floats,
        degraded=st.booleans(), model_version=st.integers(0, 9),
        payload=st.text("0123456789abcdef", max_size=16)),
}

PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=40)


def _distinct(schema):
    return st.lists(SCHEMAS[schema], min_size=1, max_size=4,
                    unique_by=lambda record: record.record_id)


def _frame_ends(records):
    ends, offset = [], 0
    for record in records:
        offset += len(frame(record))
        ends.append(offset)
    return ends


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
@settings(PROPERTY, max_examples=5)  # each example reopens ~600 cuts
@given(data=st.data())
def test_crash_at_every_byte_offset_keeps_exactly_the_whole_frames(schema,
                                                                   data):
    records = data.draw(_distinct(schema))
    extra = data.draw(SCHEMAS[schema].filter(
        lambda r: r.record_id not in {x.record_id for x in records}))
    blob = b"".join(frame(record) for record in records)
    ends = _frame_ends(records)
    record_type = type(records[0])
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "log.wal")
        for cut in range(len(blob) + 1):
            with open(path, "wb") as handle:
                handle.write(blob[:cut])
            whole = sum(1 for end in ends if end <= cut)
            boundary = ends[whole - 1] if whole else 0
            log, recovered = WriteAheadLog.open(path, record_type)
            assert recovered.records == records[:whole]
            assert recovered.torn == (cut != boundary)
            assert os.path.getsize(path) == boundary
            log.write(extra)
            log.close()
            after = replay(path, record_type)
            assert after.records == records[:whole] + [extra]
            assert after.torn == 0


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
@PROPERTY
@given(data=st.data())
def test_bit_flip_never_surfaces_an_unwritten_record(schema, data):
    records = data.draw(_distinct(schema))
    blob = bytearray(b"".join(frame(record) for record in records))
    position = data.draw(st.integers(0, len(blob) - 1))
    blob[position] ^= 1 << data.draw(st.integers(0, 7))
    # Every frame that ends at or before the flipped byte is intact;
    # the one holding it, and so everything after it, must not surface.
    intact = sum(1 for end in _frame_ends(records) if end <= position)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "log.wal")
        with open(path, "wb") as handle:
            handle.write(blob)
        replayed = replay(path, type(records[0]))
    assert replayed.records == records[:intact]
    assert replayed.torn == 1


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
@PROPERTY
@given(data=st.data())
def test_duplicate_appends_replay_once_keeping_the_first(schema, data):
    records = data.draw(st.lists(SCHEMAS[schema], min_size=1, max_size=10))
    first = {}
    for record in records:
        first.setdefault(record.record_id, record)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "log.wal")
        log, _ = WriteAheadLog.open(path, type(records[0]))
        for record in records:
            log.write(record)
        log.close()
        replayed = replay(path, type(records[0]))
    assert replayed.records == list(first.values())
    assert replayed.duplicates == len(records) - len(first)
    assert replayed.torn == 0
