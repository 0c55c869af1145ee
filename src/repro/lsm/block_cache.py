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

The cache does not look inside what it holds: it charges each value
``len(value)`` bytes, and a promotion hands the value to the ``promote``
callable it was built with and keeps (and charges) what that returns.
The store caches parsed blocks (:class:`~repro.lsm.format.DataBlock`) and
promotes with :meth:`~repro.lsm.format.DataBlock.indexed`, so the blocks
read twice carry a key index whose bytes count against the capacity.

The cache is shared between foreground queries and background compaction
reads, so every operation runs under one internal mutex — LRU reordering
and the byte accounting are not safe to interleave.  A promotion's index
build runs under it too.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, defaultdict
from typing import Callable, Hashable, Sized

__all__ = ["BlockCache"]

# Caffeine's SLRU gives the protected segment 80 % of its main space.  On
# the point-zipf ledger row's seed-1 prefix, shares of 0.5 / 0.7 / 0.8 /
# 0.9 read 0.4329 / 0.4235 / 0.4215 / 0.4223 block reads per op.
PROTECTED_SHARE = 0.8


def _unchanged(block: Sized) -> Sized:
    return block


class BlockCache:
    """Capacity-bounded data-block cache keyed by ``(file, offset)`` tuples.

    Blocks are charged at ``len(block)``.  ``promote`` maps a block moving
    from probation into protected to the block protected keeps (the store
    passes :meth:`~repro.lsm.format.DataBlock.indexed`); its new size is
    charged, and what no longer fits is demoted and evicted as on any
    insert.  A ``promote`` that raises drops the block from the cache.
    """

    def __init__(
        self,
        capacity_bytes: int,
        promote: Callable[[Sized], Sized] = _unchanged,
    ) -> None:
        if capacity_bytes < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._protected_cap = int(capacity_bytes * PROTECTED_SHARE)
        self._promote = promote
        self._lock = threading.Lock()
        self._probation: OrderedDict[Hashable, Sized] = OrderedDict()
        self._protected: OrderedDict[Hashable, Sized] = OrderedDict()
        # file name -> the keys it has cached (a dict used as an ordered
        # set), so a purge touches only that file's blocks.
        self._files: defaultdict[str, dict[Hashable, None]] = defaultdict(dict)
        self._used = 0
        self._protected_used = 0

    def get(self, key: Hashable) -> Sized | None:
        """Return the cached block or None; a hit in probation promotes it.

        The reader counts hits and misses on its query's context
        (``PerfStats.block_cache_hits`` / ``block_cache_misses``).
        """
        with self._lock:
            protected = self._protected
            if key in protected:
                protected.move_to_end(key)
                return protected[key]
            block = self._probation.pop(key, None)
            if block is None:
                return None
            self._used -= len(block)
            try:
                block = self._promote(block)
            except BaseException:
                self._unfile_locked(key)
                raise
            size = len(block)
            protected[key] = block
            self._used += size
            self._protected_used += size
            while self._protected_used > self._protected_cap:
                demoted, old = protected.popitem(last=False)
                self._protected_used -= len(old)
                self._probation[demoted] = old
            if self._used > self.capacity_bytes:
                self._evict_locked()
            return block

    def put(self, key: Hashable, block: Sized) -> None:
        """Insert a block into probation, evicting probation's LRU first.

        Oversized blocks (bigger than the whole cache) are silently not
        cached — matching RocksDB's strict-capacity-off behaviour closely
        enough for measurement purposes — and drop the key's older block.
        """
        if self.capacity_bytes == 0:
            return
        with self._lock:
            if key in self._probation or key in self._protected:
                self._remove_locked(key)
            size = len(block)
            if size > self.capacity_bytes:
                return
            self._probation[key] = block
            self._files[key[0]][key] = None
            self._used += size
            if self._used > self.capacity_bytes:
                self._evict_locked()

    def _evict_locked(self) -> None:
        while self._used > self.capacity_bytes:
            pool = self._probation or self._protected
            key, evicted = pool.popitem(last=False)
            self._used -= len(evicted)
            if pool is self._protected:
                self._protected_used -= len(evicted)
            self._unfile_locked(key)

    def _remove_locked(self, key: Hashable) -> None:
        block = self._probation.pop(key, None)
        if block is None:
            block = self._protected.pop(key)
            self._protected_used -= len(block)
        self._used -= len(block)
        self._unfile_locked(key)

    def _unfile_locked(self, key: Hashable) -> None:
        keys = self._files[key[0]]
        del keys[key]
        if not keys:
            del self._files[key[0]]

    def remove_file(self, file_name: str) -> None:
        """Drop every entry belonging to ``file_name`` (post-compaction)."""
        with self._lock:
            for key in self._files.pop(file_name, ()):
                block = self._probation.pop(key, None)
                if block is None:
                    block = self._protected.pop(key)
                    self._protected_used -= len(block)
                self._used -= len(block)

    @property
    def used_bytes(self) -> int:
        """Bytes currently charged to the cache."""
        with self._lock:
            return self._used

    def __len__(self) -> int:
        with self._lock:
            return len(self._probation) + len(self._protected)
