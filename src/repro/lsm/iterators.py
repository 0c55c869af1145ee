"""Iterator hierarchy: per-run cursors merged by a min-heap.

RocksDB range queries walk "a hierarchy of iterators" — one two-level
iterator per SST file (or memtable), consolidated by a merging iterator.
The paper identifies the maintenance of this hierarchy as the dominant CPU
cost of empty range queries, which is why its experiments bound the number
of L0 files.

:class:`MergingIterator` consumes any number of ``(key, tag, value)``
generators tagged with a recency priority (lower = newer) and yields
entries in global key order with newest-wins deduplication.  Tombstones are
*yielded* (tagged) so callers at non-terminal levels can preserve them;
:func:`live_entries` strips them for user-facing reads.
"""

from __future__ import annotations

from heapq import heapify, heappop, heapreplace
from itertools import islice
from typing import Iterable, Iterator

from repro.lsm.format import ValueTag

__all__ = ["MergingIterator", "live_entries"]


class MergingIterator:
    """Heap-merge of prioritized sorted entry streams, newest-wins.

    Parameters
    ----------
    sources:
        ``(priority, iterator)`` pairs; iterators yield ``(key, tag,
        value)`` in strictly increasing key order.  Lower priority values
        shadow higher ones on key ties (L0-newest = 0, older runs higher).
    """

    def __init__(
        self, sources: Iterable[tuple[int, Iterator[tuple[bytes, int, bytes]]]]
    ) -> None:
        self._heap: list[tuple[bytes, int, int, bytes, Iterator]] = [
            (key, priority, tag, value, iterator)
            for priority, iterator in sources
            for key, tag, value in islice(iterator, 1)  # the source's first
        ]
        heapify(self._heap)

    def __iter__(self) -> Iterator[tuple[bytes, int, bytes]]:
        heap = self._heap
        previous_key: bytes | None = None
        while heap:
            key, priority, tag, value, iterator = heap[0]
            try:
                next_key, next_tag, next_value = next(iterator)
            except StopIteration:
                heappop(heap)
            else:
                heapreplace(heap, (next_key, priority, next_tag, next_value, iterator))
            if key == previous_key:
                continue  # an older (higher-priority-number) duplicate
            previous_key = key
            yield key, tag, value


def live_entries(
    merged: Iterable[tuple[bytes, int, bytes]]
) -> Iterator[tuple[bytes, bytes]]:
    """Strip tombstones from a merged stream: yield ``(key, value)`` only."""
    for key, tag, value in merged:
        if tag == ValueTag.PUT:
            yield key, value
