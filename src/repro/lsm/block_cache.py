"""Segmented-LRU cache of data blocks.

The paper has RocksDB keep filter and index blocks resident (§4–5:
``cache_index_and_filter_blocks``, high priority, L0 pinned).  Here they
are resident without the cache: an SST's decoded fence pointers and its
deserialized filter (the §4 filter dictionary's slot) live on its
``SSTReader`` for the run's whole life, so the reader reads those blocks
from the device once and never offers them to this cache.  Its byte
budget is spent on data blocks only.  With the filter dictionary off
(the §4 ablation) every probe reads the filter block from the device.

Within that budget a data block enters a probation LRU on a miss and
moves to a protected LRU when it is hit, i.e. read a second time.  The
protected segment holds at most :data:`PROTECTED_SHARE` of the capacity
and demotes its least-recent blocks back into probation when over it;
eviction drains probation first.  So a scan's blocks, each read once,
churn probation and leave the blocks read twice alone.  This is the
segmented LRU of Karedla, Love and Wherry (IEEE Computer, 1994), which
2Q (Johnson and Shasha, VLDB 1994) and RocksDB's ``LRUCache`` (a hit
entry goes to its high-priority pool) also apply.

The cache is shared between foreground queries and background compaction
reads, so every operation runs under one internal mutex — LRU reordering
and the byte accounting are not safe to interleave.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable

__all__ = ["BlockCache"]

# Caffeine's SLRU gives the protected segment 80 % of its main space.  On
# the point-zipf ledger row's seed-1 prefix, shares of 0.5 / 0.7 / 0.8 /
# 0.9 read 0.4329 / 0.4235 / 0.4215 / 0.4223 block reads per op.
PROTECTED_SHARE = 0.8


class BlockCache:
    """Capacity-bounded data-block cache keyed by ``(file, offset)`` tuples."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._protected_cap = int(capacity_bytes * PROTECTED_SHARE)
        self._lock = threading.Lock()
        self._probation: OrderedDict[Hashable, bytes] = OrderedDict()
        self._protected: OrderedDict[Hashable, bytes] = OrderedDict()
        self._used = 0
        self._protected_used = 0

    def get(self, key: Hashable) -> bytes | None:
        """Return the cached block or None; a hit in probation promotes it.

        The reader counts hits and misses on its query's context
        (``PerfStats.block_cache_hits`` / ``block_cache_misses``).
        """
        with self._lock:
            protected = self._protected
            if key in protected:
                protected.move_to_end(key)
                return protected[key]
            if key not in self._probation:
                return None
            block = protected[key] = self._probation.pop(key)
            self._protected_used += len(block)
            while self._protected_used > self._protected_cap:
                demoted, old = protected.popitem(last=False)
                self._protected_used -= len(old)
                self._probation[demoted] = old
            return block

    def put(self, key: Hashable, block: bytes) -> None:
        """Insert a block into probation, evicting probation's LRU first.

        Oversized blocks (bigger than the whole cache) are silently not
        cached — matching RocksDB's strict-capacity-off behaviour closely
        enough for measurement purposes — and drop the key's older block.
        """
        if self.capacity_bytes == 0:
            return
        with self._lock:
            self._remove_locked(key)
            if len(block) > self.capacity_bytes:
                return
            self._probation[key] = block
            self._used += len(block)
            while self._used > self.capacity_bytes:
                pool = self._probation or self._protected
                _, evicted = pool.popitem(last=False)
                self._used -= len(evicted)
                if pool is self._protected:
                    self._protected_used -= len(evicted)

    def _remove_locked(self, key: Hashable) -> None:
        block = self._probation.pop(key, None)
        if block is None:
            block = self._protected.pop(key, None)
            if block is None:
                return
            self._protected_used -= len(block)
        self._used -= len(block)

    def remove_file(self, file_name: str) -> None:
        """Drop every entry belonging to ``file_name`` (post-compaction)."""
        with self._lock:
            for key in [key for key in self._probation if key[0] == file_name]:
                self._used -= len(self._probation.pop(key))
            for key in [key for key in self._protected if key[0] == file_name]:
                size = len(self._protected.pop(key))
                self._used -= size
                self._protected_used -= size

    @property
    def used_bytes(self) -> int:
        """Bytes currently charged to the cache."""
        with self._lock:
            return self._used

    def __len__(self) -> int:
        with self._lock:
            return len(self._probation) + len(self._protected)
