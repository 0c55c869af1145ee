"""Atomic write batches — the RocksDB ``WriteBatch`` analogue.

A batch accumulates puts and deletes and applies them atomically: the
whole batch is persisted as **one** WAL frame before any operation touches
the memtable, so recovery replays either the entire batch or none of it.
(The single-frame encoding is what makes the atomicity real: a torn write
invalidates the frame's CRC and the §WAL replay drops it whole.)

::

    batch = WriteBatch()
    batch.put(1, b"a")
    batch.delete(2)
    db.write(batch)
"""

from __future__ import annotations

import struct
from typing import Iterator

from repro.errors import StoreError
from repro.lsm.format import ValueTag

__all__ = ["WriteBatch"]


class WriteBatch:
    """An ordered collection of mutations applied atomically."""

    def __init__(self) -> None:
        self._operations: list[tuple[int, bytes, bytes]] = []

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def put(self, key: bytes, value: bytes) -> "WriteBatch":
        """Queue an upsert (encoded key bytes). Returns self for chaining."""
        self._operations.append((ValueTag.PUT, bytes(key), bytes(value)))
        return self

    def delete(self, key: bytes) -> "WriteBatch":
        """Queue a tombstone. Returns self for chaining."""
        self._operations.append((ValueTag.DELETE, bytes(key), b""))
        return self

    def __len__(self) -> int:
        return len(self._operations)

    def __iter__(self) -> Iterator[tuple[int, bytes, bytes]]:
        return iter(self._operations)

    # ------------------------------------------------------------------
    # Wire format (one WAL payload for the whole batch)
    # ------------------------------------------------------------------
    def encode(self) -> bytes:
        """Serialize the batch into a single WAL-frame payload.

        Layout: ``[u32 count]`` then per op ``[u8 tag][u32 klen][key]
        [u32 vlen][value]``.
        """
        parts = [struct.pack("<I", len(self._operations))]
        for tag, key, value in self._operations:
            parts.append(bytes([tag]))
            parts.append(struct.pack("<I", len(key)))
            parts.append(key)
            parts.append(struct.pack("<I", len(value)))
            parts.append(value)
        return b"".join(parts)

    @classmethod
    def decode(cls, payload: bytes) -> "WriteBatch":
        """Reconstruct a batch from :meth:`encode` output."""
        batch = cls()
        try:
            (count,) = struct.unpack_from("<I", payload, 0)
            offset = 4
            for _ in range(count):
                tag = payload[offset]
                offset += 1
                (key_len,) = struct.unpack_from("<I", payload, offset)
                offset += 4
                key = payload[offset : offset + key_len]
                offset += key_len
                (value_len,) = struct.unpack_from("<I", payload, offset)
                offset += 4
                value = payload[offset : offset + value_len]
                offset += value_len
                if len(key) != key_len or len(value) != value_len:
                    raise StoreError("truncated write batch")
                batch._operations.append((tag, key, value))
        except struct.error as exc:
            raise StoreError("corrupt write batch payload") from exc
        return batch
