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

The reader's block accesses go through the block cache and the storage
environment, so cache priorities and modeled device latency apply to every
path that touches the file.
"""

from __future__ import annotations

import struct
import threading
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator

from repro.core.hashing import derive_filter_salt
from repro.errors import CorruptionError, FilterBuildError
from repro.filters.base import FilterFactory, KeyFilter, serialize_envelope
from repro.lsm.block_cache import BlockCache
from repro.lsm.env import StorageEnv
from repro.lsm.format import (
    BlockHandle,
    DataBlockBuilder,
    ValueTag,
    decode_data_block,
    decode_index_block,
    encode_index_block,
    seek_data_block,
    sst_file_number,
)
from repro.lsm.options import DBOptions
from repro.lsm.stats import Stopwatch

_FOOTER = struct.Struct("<QQQQQQI")
_MAGIC = 0x524F5345  # "ROSE"
# Meta block: entry count, then min and max key, each behind its length.
_COUNT = struct.Struct("<Q")
_KEY_LEN = struct.Struct("<I")

# Parsed data blocks memoized per reader (entry lists are ~10x the work of
# the raw block fetch).  Only scans and compaction reads decode whole blocks
# (a ``get`` seeks inside the raw payload), so the bound caps what a long
# scan over one file keeps alive: this many blocks' decoded entries.
_MAX_DECODED_BLOCKS = 16

#: ``SSTReader.resolved_filter`` before the run's filter was first asked for.
UNRESOLVED = object()

__all__ = ["SSTWriter", "SSTReader", "SSTMeta", "UNRESOLVED", "read_sst_meta"]


@dataclass(frozen=True)
class SSTMeta:
    """Summary metadata of one SST file."""

    name: str
    num_entries: int
    min_key: bytes
    max_key: bytes
    file_size: int

    def overlaps(self, low: bytes, high: bytes) -> bool:
        """Whether the file's key span intersects ``[low, high]``."""
        return self.min_key <= high and self.max_key >= low


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
        filter_bits_per_key: float | None = None,
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
        # Optional bits-per-key override for this file's filter (the
        # quarantine rebuild path grants flagged runs extra bits).
        self._filter_bits_per_key = filter_bits_per_key
        self._blocks: list[bytes] = []
        self._blocks_bytes = 0  # running total of len() over _blocks
        self._index: list[tuple[bytes, int]] = []  # (last key, block length)
        self._builder = DataBlockBuilder()
        self._last_key: bytes | None = None
        self._min_key: bytes | None = None
        self._num_entries = 0
        self._int_keys: list[int] = []

    def add(self, key: bytes, tag: int, value: bytes) -> None:
        """Append one entry (keys strictly increasing)."""
        if self._last_key is not None and key <= self._last_key:
            raise FilterBuildError("SST keys must be strictly increasing")
        if self._min_key is None:
            self._min_key = key
        self._builder.add(key, tag, value)
        self._last_key = key
        self._num_entries += 1
        self._int_keys.append(int.from_bytes(key, "big"))
        if self._builder.size_estimate() >= self._options.block_size_bytes:
            self._cut_block()

    def _cut_block(self) -> None:
        if self._builder.num_entries == 0:
            return
        block = self._builder.finish()
        self._blocks.append(block)
        self._blocks_bytes += len(block)
        self._index.append((self._last_key, len(block)))
        self._builder = DataBlockBuilder()

    @property
    def estimated_file_size(self) -> int:
        """Bytes written so far plus the open block (for size-based cuts)."""
        return self._blocks_bytes + self._builder.size_estimate()

    @property
    def num_entries(self) -> int:
        """Entries added so far."""
        return self._num_entries

    def finish(self) -> SSTMeta:
        """Seal and persist the file; returns its metadata.

        Filter construction time and serialization time are charged to the
        environment's stats (Fig. 6's construction-cost accounting).
        """
        if self._num_entries == 0:
            raise FilterBuildError("cannot finish an empty SST")
        self._cut_block()
        stats = self._env.stats

        offset = 0
        parts: list[bytes] = []
        index_entries: list[tuple[bytes, BlockHandle]] = []
        for block, (last_key, length) in zip(self._blocks, self._index):
            parts.append(block)
            index_entries.append((last_key, BlockHandle(offset, length)))
            offset += length

        index_block = encode_index_block(index_entries)
        index_handle = BlockHandle(offset, len(index_block))
        parts.append(index_block)
        offset += len(index_block)

        filter_block = b""
        if self._filter_factory is not None:
            with Stopwatch(stats, "filter_construction_ns"):
                filt = self._filter_factory.build(
                    self._int_keys,
                    salt=self._filter_salt,
                    bits_per_key=self._filter_bits_per_key,
                )
            stats.add(filters_built=1)
            with Stopwatch(stats, "serialize_ns"):
                filter_block = serialize_envelope(filt)
        filter_handle = BlockHandle(offset, len(filter_block))
        parts.append(filter_block)
        offset += len(filter_block)

        meta_block = b"".join((
            _COUNT.pack(self._num_entries),
            _KEY_LEN.pack(len(self._min_key)),
            self._min_key,
            _KEY_LEN.pack(len(self._last_key)),
            self._last_key,
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
            num_entries=self._num_entries,
            min_key=self._min_key,
            max_key=self._last_key,
            file_size=len(payload),
        )


class SSTReader:
    """Query-side handle to one SST file.

    Block reads go through the block cache (filter and index blocks in its
    high-priority pool, pinned on L0) and the storage environment (charging
    modeled device time).
    The read methods count the blocks they touch on the calling query's
    ``QueryContext``; without one (open, compaction, verify, repair) on the
    environment's shared stats.

    ``resolved_filter`` is the §4 filter dictionary's slot for this run —
    the deserialized filter, ``None`` (no filter block, or degraded), or
    :data:`UNRESOLVED` — here because the reader lives exactly as long as
    the run.  Only ``FilterDictionary.get_filter`` writes it.
    """

    def __init__(
        self,
        env: StorageEnv,
        meta: SSTMeta,
        cache: BlockCache,
        is_level0: bool = False,
    ) -> None:
        self._env = env
        self.meta = meta
        self._cache = cache
        self._is_level0 = is_level0
        self._index_handle, self._filter_handle, _ = _read_footer(
            env, meta.name, meta.file_size
        )
        index_payload = self._read_metadata_block(self._index_handle)
        self._fence_pointers = decode_index_block(index_payload)
        self._fence_keys = [key for key, _ in self._fence_pointers]
        # offset -> (payload, entries); valid only while the block cache
        # still returns the identical payload object (see _decode_data_block).
        # Shared by foreground queries and background compaction reads.
        self._decoded_lock = threading.Lock()
        self._decoded_blocks: OrderedDict[int, tuple[bytes, list]] = OrderedDict()
        self.resolved_filter = UNRESOLVED

    # ------------------------------------------------------------------
    # Block access
    # ------------------------------------------------------------------
    def _read_metadata_block(self, handle: BlockHandle, context=None) -> bytes:
        """Read an index/filter block: high cache priority, pinned on L0."""
        return self._read_block(
            handle, context, high_priority=True, pinned=self._is_level0
        )

    def _read_block(
        self,
        handle: BlockHandle,
        context=None,
        high_priority: bool = False,
        pinned: bool = False,
    ) -> bytes:
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
        payload = self._env.read_block(
            self.meta.name, handle.offset, handle.size, context
        )
        self._cache.put(cache_key, payload, high_priority, pinned)
        return payload

    def filter_block_bytes(self, context=None) -> bytes:
        """Raw serialized filter envelope (empty if the SST has no filter)."""
        if self._filter_handle.size == 0:
            return b""
        return self._read_metadata_block(self._filter_handle, context)

    # ------------------------------------------------------------------
    # Point lookups
    # ------------------------------------------------------------------
    def get(self, key: bytes, context=None) -> tuple[int, bytes] | None:
        """Return ``(tag, value)`` or None; reads at most one data block.

        A point read seeks inside the raw block (restart-point bisect, one
        interval walked) instead of decoding all of it, so it neither reads
        nor fills the decoded-block memo.
        """
        if not self.meta.min_key <= key <= self.meta.max_key:
            return None
        block_index = bisect_left(self._fence_keys, key)
        if block_index >= len(self._fence_pointers):
            return None
        return seek_data_block(
            self._read_block(self._fence_pointers[block_index][1], context), key
        )

    def _decode_data_block(
        self, block_index: int, context=None
    ) -> list[tuple[bytes, int, bytes]]:
        """Fetch and parse one data block, memoizing the parsed entries.

        The memo key is the *identity* of the payload ``_read_block``
        returns: a block-cache hit hands back the same bytes object, so the
        varint parse is skipped; a device read (cache miss, eviction, or
        cache disabled) produces a fresh object and re-decodes.  Cache-hit /
        device-read accounting is therefore untouched — only the redundant
        re-parse of an already-resident block is elided.
        """
        _, handle = self._fence_pointers[block_index]
        payload = self._read_block(handle, context)
        with self._decoded_lock:
            memo = self._decoded_blocks.get(handle.offset)
            if memo is not None and memo[0] is payload:
                self._decoded_blocks.move_to_end(handle.offset)
                return memo[1]
        entries = decode_data_block(payload)
        with self._decoded_lock:
            self._decoded_blocks[handle.offset] = (payload, entries)
            self._decoded_blocks.move_to_end(handle.offset)
            if len(self._decoded_blocks) > _MAX_DECODED_BLOCKS:
                self._decoded_blocks.popitem(last=False)
        return entries

    # ------------------------------------------------------------------
    # Iteration (the two-level iterator)
    # ------------------------------------------------------------------
    def iterate_from(
        self, key: bytes, context=None
    ) -> Iterator[tuple[bytes, int, bytes]]:
        """Yield entries with key >= ``key``, in order, across blocks.

        This is the child-iterator pair of RocksDB's two-level iterator:
        an index cursor choosing data blocks and a block cursor scanning
        entries; each data block is fetched lazily.
        """
        first = bisect_left(self._fence_keys, key)
        for block_index in range(first, len(self._fence_pointers)):
            entries = self._decode_data_block(block_index, context)
            start = 0
            if block_index == first:
                start = bisect_left(entries, key, key=lambda e: e[0])
            yield from entries[start:]

    def num_data_blocks(self) -> int:
        """Number of data blocks (fence-pointer entries)."""
        return len(self._fence_pointers)
