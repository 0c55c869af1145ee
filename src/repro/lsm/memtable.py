"""Dict memtable — the in-memory write buffer of the LSM-tree.

A plain ``dict`` from byte-string key to an immutable ``(tag, value)``
entry.  Overwrites replace in place (the memtable holds at most one entry
per key; sequence ordering across runs is provided by run recency, as in
LevelDB-style stores).  Deletions store a tombstone tag so a flush
propagates them.

Key order is made on demand: :meth:`MemTable.entries` and
:meth:`MemTable.entries_from` sort the keys and cache the sorted list under
the insert count it was taken at, so a sealed memtable sorts once and an
active one re-sorts only after a new key arrived.

Concurrency contract: one writer, any number of readers, no lock.  Every
mutation a reader could observe is one dict store under the GIL: an
overwrite swaps one immutable ``(tag, value)`` tuple, so a reader sees the
old or the new entry of a key, never a torn ``(new_tag, old_value)`` pair;
keys are never removed, so a key in a sorted snapshot is always still
there.  A new key bumps ``_version`` *after* its dict store, and a reader
reads ``_version`` *before* it sorts; ``sorted()`` over a dict of bytes
keys runs in C (bytes compare in C) and so is atomic under the GIL.  A key
that lands between the two reads is then either in the sorted list or
newer than the version the list is cached under, so the next reader
re-sorts and sees it; a list is never cached under a version newer than
its contents.  Sealed (immutable) memtables are never mutated at all.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator

from repro.lsm.format import ValueTag

__all__ = ["MemTable"]


class MemTable:
    """In-memory buffer with approximate byte accounting, sorted on read.

    ``approximate_bytes`` counts key+value payload plus a small per-entry
    overhead so the flush trigger tracks real memory use.
    """

    _ENTRY_OVERHEAD = 16

    def __init__(self) -> None:
        self._entries: dict[bytes, tuple[int, bytes]] = {}
        self._bytes = 0
        self._version = 0  # new keys inserted so far
        self._sorted: tuple[int, list[bytes]] = (0, [])  # (version, keys)

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def approximate_bytes(self) -> int:
        """Approximate memory footprint of buffered entries."""
        return self._bytes

    @property
    def is_empty(self) -> bool:
        """True when no entries are buffered."""
        return not self._entries

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key``."""
        self._upsert(key, (ValueTag.PUT, value))

    def delete(self, key: bytes) -> None:
        """Record a tombstone for ``key``."""
        self._upsert(key, (ValueTag.DELETE, b""))

    def _upsert(self, key: bytes, entry: tuple[int, bytes]) -> None:
        entries = self._entries
        old = entries.get(key)
        entries[key] = entry
        if old is None:
            self._version += 1  # after the store: see the module docstring
            self._bytes += len(key) + len(entry[1]) + self._ENTRY_OVERHEAD
        else:
            self._bytes += len(entry[1]) - len(old[1])

    # ------------------------------------------------------------------
    # Lookup / iteration
    # ------------------------------------------------------------------
    def get(self, key: bytes) -> tuple[int, bytes] | None:
        """Return ``(tag, value)`` or None when the key is not buffered."""
        return self._entries.get(key)

    def _sorted_keys(self) -> list[bytes]:
        version, keys = self._sorted
        if version != self._version:
            version = self._version  # before the sort: see the module docstring
            keys = sorted(self._entries)
            self._sorted = (version, keys)
        return keys

    def entries(self) -> Iterator[tuple[bytes, int, bytes]]:
        """Yield ``(key, tag, value)`` in ascending key order."""
        entries = self._entries
        for key in self._sorted_keys():
            tag, value = entries[key]
            yield key, tag, value

    def entries_from(self, key: bytes) -> Iterator[tuple[bytes, int, bytes]]:
        """Yield entries with key >= ``key`` in ascending order."""
        entries = self._entries
        keys = self._sorted_keys()
        for found in keys[bisect_left(keys, key):]:
            tag, value = entries[found]
            yield found, tag, value
