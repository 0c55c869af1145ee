"""LRU block cache with a high-priority pool for filter/index blocks.

Reproduces the RocksDB caching behaviour the paper configures (§4
footnotes), always on rather than as options: filter and index blocks
share the cache with data blocks, sit in a high-priority pool so data
blocks evict first, and on L0 are pinned, exempt from eviction entirely.
The reader asks for that per block (``SSTReader._read_metadata_block``).

Implementation: two LRU pools (low = data, high = filter/index) sharing one
byte budget, plus a pinned set that is charged but never evicted.  Eviction
drains the low-priority pool before touching the high-priority one.  The
cache is shared between foreground queries and background compaction
reads, so every operation runs under one internal mutex — LRU reordering
and the ``_used`` byte accounting are not safe to interleave.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable

__all__ = ["BlockCache"]


class BlockCache:
    """Capacity-bounded block cache keyed by ``(file, offset)`` tuples."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._lock = threading.Lock()
        self._low: OrderedDict[Hashable, bytes] = OrderedDict()
        self._high: OrderedDict[Hashable, bytes] = OrderedDict()
        self._pinned: dict[Hashable, bytes] = {}
        self._used = 0

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> bytes | None:
        """Return the cached block or None; refreshes LRU position.

        The reader counts hits and misses on its query's context
        (``PerfStats.block_cache_hits`` / ``block_cache_misses``).
        """
        with self._lock:
            if key in self._pinned:
                return self._pinned[key]
            for pool in (self._high, self._low):
                if key in pool:
                    pool.move_to_end(key)
                    return pool[key]
            return None

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def put(
        self,
        key: Hashable,
        block: bytes,
        high_priority: bool = False,
        pinned: bool = False,
    ) -> None:
        """Insert a block, evicting LRU data blocks first if needed.

        Oversized blocks (bigger than the whole cache) are silently not
        cached — matching RocksDB's strict-capacity-off behaviour closely
        enough for measurement purposes.
        """
        if self.capacity_bytes == 0 or len(block) > self.capacity_bytes:
            return
        with self._lock:
            self._remove_locked(key)
            if pinned:
                self._pinned[key] = block
            elif high_priority:
                self._high[key] = block
            else:
                self._low[key] = block
            self._used += len(block)
            self._evict_to_capacity()

    def _evict_to_capacity(self) -> None:
        while self._used > self.capacity_bytes and self._low:
            _, evicted = self._low.popitem(last=False)
            self._used -= len(evicted)
        while self._used > self.capacity_bytes and self._high:
            _, evicted = self._high.popitem(last=False)
            self._used -= len(evicted)
        # Pinned blocks are never evicted; they may keep usage above
        # capacity, exactly like RocksDB's pinning.

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _remove_locked(self, key: Hashable) -> None:
        for pool in (self._low, self._high, self._pinned):
            block = pool.pop(key, None)
            if block is not None:
                self._used -= len(block)
                return

    def remove_file(self, file_name: str) -> None:
        """Drop every entry belonging to ``file_name`` (post-compaction)."""
        with self._lock:
            for pool in (self._low, self._high, self._pinned):
                stale = [key for key in pool if key[0] == file_name]
                for key in stale:
                    self._used -= len(pool.pop(key))

    @property
    def used_bytes(self) -> int:
        """Bytes currently charged to the cache."""
        with self._lock:
            return self._used

    def __len__(self) -> int:
        with self._lock:
            return len(self._low) + len(self._high) + len(self._pinned)
