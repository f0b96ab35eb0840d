"""One write-ahead log: CRC-framed records, crash-safe replay, recovery.

The verdict journal (:mod:`repro.serving.journal`) and the edge spool
(:mod:`repro.edge.spool`) are each a record schema plus a policy over
this log.  A frame is ``magic(2) | payload_length:u32 LE |
crc32(payload):u32 LE | payload``.  A record type supplies the class
attribute ``MAGIC``, ``to_payload()``, the classmethod
``from_payload(bytes)`` and the dedup identity ``record_id``.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field

_HEADER = struct.Struct("<2sII")


def frame(record) -> bytes:
    """One on-disk frame: header + payload, CRC over the payload."""
    payload = record.to_payload()
    return _HEADER.pack(type(record).MAGIC, len(payload),
                        zlib.crc32(payload) & 0xFFFFFFFF) + payload


@dataclass
class Replay:
    """What :func:`replay` recovered from a log file.

    ``bytes_read`` is the offset just past the last verified frame: the
    point a recovery pass cuts a torn file back to.
    """

    records: list = field(default_factory=list)
    duplicates: int = 0
    torn: int = 0
    bytes_read: int = 0

    @property
    def ids(self) -> set:
        """The deduplicated record ids recovered."""
        return {record.record_id for record in self.records}


def replay(path: str, record_type) -> Replay:
    """Parse every intact frame, dedup, stop at the first bad one.

    A frame is accepted only when its magic, length and CRC verify; the
    first that fails (a partial write from a crash mid-append) ends the
    replay and counts as ``torn``, so a torn record is never surfaced.
    Duplicate ids keep their first occurrence (append order is delivery
    order; later appends are retries).
    """
    result = Replay()
    if not os.path.exists(path):
        return result
    with open(path, "rb") as handle:
        blob = handle.read()
    seen = set()
    offset = 0
    while offset < len(blob):
        header = blob[offset:offset + _HEADER.size]
        if len(header) < _HEADER.size:
            result.torn += 1
            break
        magic, length, crc = _HEADER.unpack(header)
        payload = blob[offset + _HEADER.size:offset + _HEADER.size + length]
        if (magic != record_type.MAGIC or len(payload) < length
                or zlib.crc32(payload) & 0xFFFFFFFF != crc):
            result.torn += 1
            break
        try:
            record = record_type.from_payload(payload)
        except (ValueError, KeyError):
            result.torn += 1
            break
        offset += _HEADER.size + length
        result.bytes_read = offset
        if record.record_id in seen:
            result.duplicates += 1
            continue
        seen.add(record.record_id)
        result.records.append(record)
    return result


class WriteAheadLog:
    """An append handle on one log file.  Every I/O error raises ``OSError``.

    Construct with :meth:`open`, which recovers the file first.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        #: Frames written since the last :meth:`flush`.
        self.unsynced = 0
        self._handle = open(self.path, "ab")

    @classmethod
    def open(cls, path: str, record_type) -> tuple["WriteAheadLog", Replay]:
        """Replay ``path``, cut a torn tail off, reopen for append.

        Cutting the tail makes appends after a restart follow the last
        intact frame; behind a torn one, replay would never reach them.
        Returns the log and the replay report (``torn`` frames cut).
        """
        recovered = replay(str(path), record_type)
        if recovered.torn:
            os.truncate(path, recovered.bytes_read)
        return cls(path), recovered

    @property
    def closed(self) -> bool:
        return self._handle.closed

    def write(self, record) -> None:
        """Frame ``record`` into the file buffer (no disk barrier)."""
        self._handle.write(frame(record))
        self.unsynced += 1

    def flush(self) -> None:
        """Flush buffered frames and issue the disk barrier (a no-op
        once the log is closed)."""
        if self._handle.closed:
            return
        try:
            self._handle.flush()
            os.fsync(self._handle.fileno())
        finally:
            self.unsynced = 0

    @property
    def size_bytes(self) -> int:
        """Bytes written to the file so far (buffered included)."""
        if self._handle.closed:
            try:
                return os.path.getsize(self.path)
            except OSError:
                return 0
        return self._handle.tell()

    def rewrite(self, records) -> None:
        """Replace the file with ``records`` via an fsynced temporary
        file, so a crash leaves the old file or the new one, not a mix."""
        tmp = self.path + ".compact"
        with open(tmp, "wb") as handle:
            for record in records:
                handle.write(frame(record))
            handle.flush()
            os.fsync(handle.fileno())
        self._handle.close()
        os.replace(tmp, self.path)
        self._handle = open(self.path, "ab")
        self.unsynced = 0

    def close(self) -> None:
        self._handle.close()
