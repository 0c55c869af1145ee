"""SST (Static Sorted Table) files — the on-disk runs of the LSM-tree.

Layout (all offsets in the fixed-size footer)::

    [data block 0] ... [data block N-1]
    [index block]      # fence pointers: last key + handle per data block
    [filter block]     # serialized filter envelope (optional)
    [meta block]       # entry count, min/max key
    [footer]           # 3 block handles + magic

One filter instance exists per SST file, exactly as the paper integrates
Rosetta into RocksDB ("A Rosetta instance is created for every SST file");
the filter is serialized into the file and must be fetched + deserialized
before probing (the costs Fig. 5(A2) breaks down).

The reader's data-block reads go through the block cache and the storage
environment; a block read from the device is verified and parsed once
(:class:`~repro.lsm.format.DataBlock`) and cached parsed.  Its index and
filter blocks are read from the environment once and kept decoded on the
reader, so modeled device latency applies to every path that touches the
file and the cache holds data blocks only.
"""

from __future__ import annotations

import struct
import threading
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

from repro.core.analysis import fp_excess_bound
from repro.core.hashing import derive_filter_salt
from repro.errors import CorruptionError, FilterBuildError, SerializationError
from repro.filters.base import (
    FilterFactory,
    KeyFilter,
    deserialize_filter,
    serialize_envelope,
)
from repro.lsm.block_cache import BlockCache
from repro.lsm.env import StorageEnv
from repro.lsm.format import (
    BlockHandle,
    DataBlock,
    DataBlockBuilder,
    ValueTag,
    decode_data_block,
    decode_index_block,
    encode_index_block,
    sst_file_number,
)
from repro.lsm.options import DBOptions
from repro.lsm.stats import PerfStats, Stopwatch

_FOOTER = struct.Struct("<QQQQQQI")
_MAGIC = 0x524F5345  # "ROSE"
# Meta block: entry count, then min and max key, each behind its length.
_COUNT = struct.Struct("<Q")
_KEY_LEN = struct.Struct("<I")

#: ``SSTReader.resolved_filter`` before the run's filter was first asked for.
UNRESOLVED = object()

#: Significance level of the attack detector: a run is flagged once its
#: false-positive count would happen by chance less often than this under
#: its filter's design FPR.
QUARANTINE_ALPHA = 1e-6

__all__ = [
    "QUARANTINE_ALPHA", "SSTWriter", "SSTReader", "SSTMeta", "UNRESOLVED",
    "read_sst_meta",
]


@dataclass(frozen=True)
class SSTMeta:
    """Summary metadata of one SST file."""

    name: str
    num_entries: int
    min_key: bytes
    max_key: bytes
    file_size: int


def _read_footer(
    env: StorageEnv, name: str, file_size: int
) -> tuple[BlockHandle, BlockHandle, BlockHandle]:
    """The footer's index, filter and meta block handles."""
    if file_size < _FOOTER.size:
        raise CorruptionError(f"{name} is shorter than an SST footer")
    fields = _FOOTER.unpack(
        env.read_block(name, file_size - _FOOTER.size, _FOOTER.size)
    )
    if fields[6] != _MAGIC:
        raise CorruptionError(f"bad SST magic in {name}")
    return (
        BlockHandle(fields[0], fields[1]),
        BlockHandle(fields[2], fields[3]),
        BlockHandle(fields[4], fields[5]),
    )


def read_sst_meta(env: StorageEnv, name: str) -> SSTMeta:
    """Rebuild a file's :class:`SSTMeta` from its footer and meta block.

    The one parser of what :meth:`SSTWriter.finish` writes there; a footer
    or meta block that does not parse — short, or with a key length that
    overruns the block — raises :class:`~repro.errors.CorruptionError`.
    """
    file_size = env.file_size(name)
    _, _, meta_handle = _read_footer(env, name, file_size)
    payload = env.read_block(name, meta_handle.offset, meta_handle.size)
    keys: list[bytes] = []
    offset = _COUNT.size
    while len(keys) < 2 and offset + _KEY_LEN.size <= len(payload):
        (length,) = _KEY_LEN.unpack_from(payload, offset)
        offset += _KEY_LEN.size + length
        keys.append(payload[offset - length : offset])
    if len(keys) < 2 or offset != len(payload):
        raise CorruptionError(f"meta block of {name} does not parse")
    (num_entries,) = _COUNT.unpack_from(payload)
    return SSTMeta(name, num_entries, keys[0], keys[1], file_size)


class SSTWriter:
    """Builds one SST file from entries added in strictly increasing order."""

    def __init__(
        self,
        env: StorageEnv,
        name: str,
        options: DBOptions,
        filter_factory: FilterFactory | None = None,
    ) -> None:
        self._env = env
        self.name = name
        self._options = options
        self._filter_factory = (
            filter_factory if filter_factory is not None else options.filter_factory
        )
        # Per-file salt: the store seed mixed with this file's allocation
        # number, so every flush/compaction output probes with a hash
        # family an FP-replay attacker has never observed.  Zero (the
        # default seed) keeps filters byte-identical to the unsalted
        # format.
        self._filter_salt = derive_filter_salt(
            options.filter_salt_seed, sst_file_number(name)
        )
        self._blocks = DataBlockBuilder(block_size=options.block_size_bytes)

    def extend(
        self,
        entries: Iterable[tuple[bytes, int, bytes]],
        file_limit: int | None = None,
    ) -> None:
        """Encode into the file's data blocks (:meth:`DataBlockBuilder.extend`)."""
        self._blocks.extend(entries, file_limit)

    def finish(self) -> SSTMeta:
        """Seal and persist the file; returns its metadata.

        Filter construction time and serialization time are charged to the
        environment's stats (Fig. 6's construction-cost accounting).
        """
        blocks = self._blocks
        if blocks.num_entries == 0:
            raise FilterBuildError("cannot finish an empty SST")
        if blocks.open_entries:
            blocks.finish()
        stats = self._env.stats

        offset = 0
        parts: list[bytes] = []
        index_entries: list[tuple[bytes, BlockHandle]] = []
        for block, last_key in zip(blocks.blocks, blocks.last_keys):
            parts.append(block)
            index_entries.append((last_key, BlockHandle(offset, len(block))))
            offset += len(block)

        index_block = encode_index_block(index_entries)
        index_handle = BlockHandle(offset, len(index_block))
        parts.append(index_block)
        offset += len(index_block)

        filter_block = b""
        if self._filter_factory is not None:
            with Stopwatch(stats, "filter_construction_ns"):
                filt = self._filter_factory.build(
                    blocks.int_keys, salt=self._filter_salt
                )
            stats.add(filters_built=1)
            with Stopwatch(stats, "serialize_ns"):
                filter_block = serialize_envelope(filt)
        filter_handle = BlockHandle(offset, len(filter_block))
        parts.append(filter_block)
        offset += len(filter_block)

        meta_block = b"".join((
            _COUNT.pack(blocks.num_entries),
            _KEY_LEN.pack(len(blocks.first_key)),
            blocks.first_key,
            _KEY_LEN.pack(len(blocks.last_key)),
            blocks.last_key,
        ))
        meta_handle = BlockHandle(offset, len(meta_block))
        parts.append(meta_block)
        offset += len(meta_block)

        parts.append(
            _FOOTER.pack(
                index_handle.offset,
                index_handle.size,
                filter_handle.offset,
                filter_handle.size,
                meta_handle.offset,
                meta_handle.size,
                _MAGIC,
            )
        )
        payload = b"".join(parts)
        # sync=True: an SST is only referenced by the manifest once fully
        # durable — the flush/compaction install order depends on it.
        self._env.write_file(self.name, payload, sync=True)
        return SSTMeta(
            name=self.name,
            num_entries=blocks.num_entries,
            min_key=blocks.first_key,
            max_key=blocks.last_key,
            file_size=len(payload),
        )


class SSTReader:
    """Query-side handle to one SST file.

    Data-block reads go through the block cache and the storage environment
    (charging modeled device time).  The index block is read from the
    environment at open and the filter block at its first touch, both
    decoded onto the reader for its whole life and never cached as bytes.
    The read methods count the blocks they touch on the calling query's
    ``QueryContext``; without one (open, compaction, verify, repair) on the
    environment's shared stats.

    The reader also holds the run's filter state, so it lives and dies
    with the run: ``resolved_filter`` (the §4 filter dictionary's slot —
    the deserialized filter, ``None`` for no filter block or a degraded
    one, or :data:`UNRESOLVED`), the ``filter_degraded`` mark, the attack
    detector's ``under_attack`` flag and outcome counts, and the rebuild
    ``generation``.  All of it is written under the reader's one
    ``_filter_lock``; ``resolved_filter`` is also read without it.
    """

    def __init__(self, env: StorageEnv, meta: SSTMeta, cache: BlockCache) -> None:
        self._env = env
        self.meta = meta
        self._cache = cache
        self._index_handle, self._filter_handle, _ = _read_footer(
            env, meta.name, meta.file_size
        )
        self._fence_pointers = decode_index_block(
            self.read_from_device(self._index_handle)
        )
        self._fence_keys = [key for key, _ in self._fence_pointers]
        self._filter_lock = threading.Lock()
        self.resolved_filter = UNRESOLVED
        #: The filter envelope failed to decode: served filter-less for life.
        self.filter_degraded = False
        #: Flagged by the attack detector until the filter is rebuilt.
        self.under_attack = False
        # The detector's evidence: rejectable outcomes, and the false
        # positives among them.
        self._outcomes = 0
        self._false_positives = 0
        #: In-place filter rebuilds so far (the filter's salt generation);
        #: in memory only, so a reopened run serves its file's filter again.
        self.generation = 0

    # ------------------------------------------------------------------
    # Filter state
    # ------------------------------------------------------------------
    def resolve_filter(
        self, stats: PerfStats, context=None, memoize: bool = True
    ) -> KeyFilter | None:
        """The run's filter on its first touch: fetch the filter block
        (counted on ``context`` when given), deserialize it (charged to
        ``stats``) and, with ``memoize``, keep it in ``resolved_filter``.

        An envelope that fails to decode (bad CRC, bad magic, truncated
        bytes) serves the run filter-less instead of failing the query: the
        probe passes, the data read's own block CRCs still guard the
        answer, ``filter_degraded`` is set and ``PerfStats.filters_degraded``
        counts the run once.  "No filter" is always kept.
        """
        with self._filter_lock:
            filt = self.resolved_filter
            if filt is not UNRESOLVED:
                return filt
            envelope = self.filter_block_bytes(context)
            filt = None
            if envelope:
                try:
                    with Stopwatch(stats, "deserialize_ns"):
                        filt = deserialize_filter(envelope)
                except SerializationError:
                    self.filter_degraded = True
                    stats.add(filters_degraded=1)
            if filt is None or memoize:
                self.resolved_filter = filt
            return filt

    def record_outcome(
        self, design_fpr: float | None, negatives: int, false_positives: int
    ) -> bool:
        """Feed the run's rejectable-query outcomes to the attack detector.

        ``design_fpr`` is what the run's filter predicts for these queries
        (:meth:`~repro.filters.base.KeyFilter.design_fpr`); None means no
        model covers them, and they are not evidence.  Returns True once,
        on the false positive that brings
        :func:`~repro.core.analysis.fp_excess_bound` over everything the run
        answered below :data:`QUARANTINE_ALPHA`, setting ``under_attack``.
        """
        if design_fpr is None:
            return False
        with self._filter_lock:
            if self.under_attack:
                return False
            self._outcomes += negatives + false_positives
            self._false_positives += false_positives
            # Only a new false positive can make the count significant.
            if not false_positives or fp_excess_bound(
                self._false_positives, self._outcomes, design_fpr
            ) >= QUARANTINE_ALPHA:
                return False
            self.under_attack = True
            return True

    def install_rebuilt(self, filt: KeyFilter | None) -> None:
        """Serve ``filt`` from now on, as a clean run: the flag and outcome
        counts go and the generation goes up by one.  The slot keeps
        ``filt`` even with the filter dictionary disabled, since the file
        holds the filter it replaces."""
        with self._filter_lock:
            self.resolved_filter = filt
            self.under_attack = False
            self._outcomes = self._false_positives = 0
            self.generation += 1

    # ------------------------------------------------------------------
    # Block access
    # ------------------------------------------------------------------
    def _read_block(self, handle: BlockHandle, context=None) -> DataBlock:
        """One data block, through the block cache.

        A miss reads the block from the device and parses it
        (:class:`~repro.lsm.format.DataBlock` verifies its CRC32 and restart
        array) before caching it, so a corrupt block raises on every read
        and never enters the cache; a hit is trusted as it was cached.
        """
        cache_key = (self.meta.name, handle.offset)
        cached = self._cache.get(cache_key)
        if cached is not None:
            if context is None:
                self._env.stats.add(block_cache_hits=1)
            else:
                context.block_cache_hits += 1
            return cached
        if context is None:
            self._env.stats.add(block_cache_misses=1)
        else:
            context.block_cache_misses += 1
        block = DataBlock(
            self._env.read_block(self.meta.name, handle.offset, handle.size, context)
        )
        self._cache.put(cache_key, block)
        return block

    def read_from_device(self, handle: BlockHandle, context=None) -> bytes:
        """One block read from the file itself: the block cache is neither
        asked nor filled, so a verify sees what is on disk."""
        if handle.size == 0:
            return b""
        return self._env.read_block(
            self.meta.name, handle.offset, handle.size, context
        )

    def filter_block_bytes(self, context=None) -> bytes:
        """Raw serialized filter envelope (empty if the SST has no filter),
        read from the device: the resolved filter is what stays resident."""
        return self.read_from_device(self._filter_handle, context)

    # ------------------------------------------------------------------
    # Point lookups
    # ------------------------------------------------------------------
    def get(self, key: bytes, context=None) -> tuple[int, bytes] | None:
        """Return ``(tag, value)`` or None; reads at most one data block.

        A point read seeks inside the block (:meth:`DataBlock.seek
        <repro.lsm.format.DataBlock.seek>`) instead of iterating it: one
        bisect of the key index on a block the cache has promoted, the
        restart bisect and one interval walked on any other.
        """
        if not self.meta.min_key <= key <= self.meta.max_key:
            return None
        block_index = bisect_left(self._fence_keys, key)
        if block_index >= len(self._fence_pointers):
            return None
        return self._read_block(self._fence_pointers[block_index][1], context).seek(key)

    # ------------------------------------------------------------------
    # Iteration (the two-level iterator)
    # ------------------------------------------------------------------
    def iterate_from(
        self, key: bytes, context=None
    ) -> Iterator[tuple[bytes, int, bytes]]:
        """Yield entries with key >= ``key``, in order, across blocks.

        This is the child-iterator pair of RocksDB's two-level iterator:
        an index cursor choosing data blocks and a block cursor
        (:func:`~repro.lsm.format.decode_data_block`) per block, which seeks
        to ``key`` in the first; each data block is fetched when the
        cursor before it runs out.
        """
        first = bisect_left(self._fence_keys, key)
        read = self._read_block
        return chain.from_iterable(
            decode_data_block(read(handle, context), key if index == first else b"")
            for index, (_, handle) in enumerate(self._fence_pointers[first:], first)
        )

    def num_data_blocks(self) -> int:
        """Number of data blocks (fence-pointer entries)."""
        return len(self._fence_pointers)
