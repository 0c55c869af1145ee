"""Write-ahead log with CRC-framed records.

Every mutation is appended to the WAL before entering the memtable, so an
unflushed buffer survives a crash.  Records are individually framed
(length + CRC32); replay stops cleanly at the first corrupt or truncated
frame, which is the torn-write recovery contract of LevelDB/RocksDB logs.

Record layout::

    [u32 crc][u32 payload_len][u8 op][u32 key_len][key][value]
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterator

from repro.lsm.env import StorageEnv
from repro.lsm.format import ValueTag

__all__ = ["WriteAheadLog", "BATCH_OP", "wal_file_name", "parse_wal_seq"]

_HEADER = struct.Struct("<II")

#: Record op-code for an atomic write batch (payload = WriteBatch.encode()).
BATCH_OP = 0xB0


def wal_file_name(seq: int) -> str:
    """Store-relative WAL name for rotation sequence ``seq``.

    Sequence 0 keeps the historical name ``wal.log`` so stores written
    before WAL rotation existed (and tests that pin the name) keep
    working; later rotations get numbered names.
    """
    return "wal.log" if seq == 0 else f"wal_{seq:06d}.log"


def parse_wal_seq(name: str) -> int | None:
    """Inverse of :func:`wal_file_name`; None when ``name`` is not a WAL."""
    if name == "wal.log":
        return 0
    if name.startswith("wal_") and name.endswith(".log"):
        digits = name[len("wal_") : -len(".log")]
        if digits.isdigit():
            return int(digits)
    return None


class WriteAheadLog:
    """Append-only mutation log bound to one :class:`StorageEnv` file.

    Every append ends with a durability barrier
    (:meth:`StorageEnv.sync_file`), which is what makes a write
    "acknowledged": a power cut afterwards may tear at most the record a
    crash interrupted mid-append, and CRC framing drops that torn tail on
    replay.
    """

    def __init__(self, env: StorageEnv, name: str = "wal.log") -> None:
        self._env = env
        self.name = name

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append_put(self, key: bytes, value: bytes) -> None:
        """Log an upsert."""
        self._append(ValueTag.PUT, key, value)

    def append_delete(self, key: bytes) -> None:
        """Log a tombstone."""
        self._append(ValueTag.DELETE, key, b"")

    def append_batch(self, encoded_batch: bytes) -> None:
        """Log an atomic write batch as one frame (all-or-nothing replay)."""
        self._append(BATCH_OP, b"", encoded_batch)

    def _append(self, op: int, key: bytes, value: bytes) -> None:
        payload = bytes([op]) + struct.pack("<I", len(key)) + key + value
        frame = _HEADER.pack(zlib.crc32(payload), len(payload)) + payload
        self._env.append_file(self.name, frame)
        self._env.sync_file(self.name)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def replay(self) -> Iterator[tuple[int, bytes, bytes]]:
        """Yield ``(op, key, value)`` for every intact record, in order.

        Stops silently at the first truncated/corrupt frame (torn tail).
        """
        if not self._env.exists(self.name):
            return
        payload = self._env.read_file(self.name)
        offset = 0
        while offset + _HEADER.size <= len(payload):
            crc, length = _HEADER.unpack_from(payload, offset)
            body_start = offset + _HEADER.size
            body = payload[body_start : body_start + length]
            if len(body) < length or zlib.crc32(body) != crc:
                return  # torn tail; everything before it was intact
            op = body[0]
            (key_len,) = struct.unpack_from("<I", body, 1)
            key = body[5 : 5 + key_len]
            value = body[5 + key_len :]
            yield op, key, value
            offset = body_start + length
