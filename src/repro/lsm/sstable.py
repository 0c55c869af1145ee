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
environment; its index and filter blocks are read from the environment
once and kept decoded on the reader, so modeled device latency applies to
every path that touches the file and the cache holds data blocks only.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

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

    ``resolved_filter`` is the §4 filter dictionary's slot for this run —
    the deserialized filter, ``None`` (no filter block, or degraded), or
    :data:`UNRESOLVED` — here because the reader lives exactly as long as
    the run.  Only ``FilterDictionary.get_filter`` and
    ``FilterDictionary.install_rebuilt`` (a quarantined run's in-place
    rebuild) write it.
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
        self.resolved_filter = UNRESOLVED

    # ------------------------------------------------------------------
    # Block access
    # ------------------------------------------------------------------
    def _read_block(self, handle: BlockHandle, context=None) -> bytes:
        """One data block, through the block cache."""
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
        self._cache.put(cache_key, payload)
        return payload

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

        A point read seeks inside the raw block (restart-point bisect, one
        interval walked) instead of iterating it.
        """
        if not self.meta.min_key <= key <= self.meta.max_key:
            return None
        block_index = bisect_left(self._fence_keys, key)
        if block_index >= len(self._fence_pointers):
            return None
        return seek_data_block(
            self._read_block(self._fence_pointers[block_index][1], context), key
        )

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
