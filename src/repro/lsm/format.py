"""On-disk block encodings for SST files (RocksDB-style).

Data blocks use restart-point prefix compression: within a block, each
entry stores how many key bytes it shares with its predecessor, and every
``restart_interval`` entries a *restart point* stores the full key so a
reader can binary-search restart points and scan forward
(:func:`seek_data_block`, the point read; :func:`decode_data_block` parses
every entry, for scans).  Blocks end with the restart offset array, its
length, the entry count, and a CRC32 checksum.

Entries carry a one-byte value tag distinguishing puts from deletion
tombstones — the merge machinery needs tombstones to shadow older values
until they reach the bottom level.

Index blocks map each data block's *last key* to its (offset, size); the
in-memory form of an index block is exactly the paper's fence pointers.
"""

from __future__ import annotations

import re
import struct
import zlib
from typing import Iterator, NamedTuple

from repro.errors import CorruptionError

__all__ = [
    "ValueTag",
    "BlockHandle",
    "encode_varint",
    "decode_varint",
    "DataBlockBuilder",
    "decode_data_block",
    "seek_data_block",
    "encode_index_block",
    "decode_index_block",
    "sst_file_number",
]

#: ``sst_<level>_<number>.sst`` — the number is allocation order.  The
#: compaction picker uses it as run age; per-SST filter salting mixes it
#: into the store's ``filter_salt_seed`` so every rebuild re-keys.
_SST_NUMBER = re.compile(r"^sst_\d+_(\d+)\.sst$")

_U32 = struct.Struct("<I")


def sst_file_number(name: str) -> int:
    """Allocation number embedded in an SST file name (0 if unparsable)."""
    match = _SST_NUMBER.match(name)
    return int(match.group(1)) if match else 0


class ValueTag:
    """One-byte entry type tags."""

    PUT = 0
    DELETE = 1


class BlockHandle(NamedTuple):
    """Location of a block within an SST file."""

    offset: int
    size: int

    def to_bytes(self) -> bytes:
        return struct.pack("<QQ", self.offset, self.size)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "BlockHandle":
        offset, size = struct.unpack("<QQ", payload[:16])
        return cls(offset, size)


def encode_varint(value: int) -> bytes:
    """LEB128 unsigned varint."""
    if value < 0:
        raise ValueError(f"varints are unsigned, got {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(
    payload: bytes, offset: int, end: int | None = None
) -> tuple[int, int]:
    """Decode a varint at ``offset``; returns (value, next_offset).

    The varint must finish before ``end`` (default: the payload's end).
    """
    if end is None:
        end = len(payload)
    value = 0
    shift = 0
    while True:
        if offset >= end:
            raise CorruptionError("truncated varint")
        byte = payload[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7
        if shift > 63:
            raise CorruptionError("varint too long")


class DataBlockBuilder:
    """Accumulates sorted entries into one prefix-compressed data block.

    ``restart_interval`` is the longest in-block walk of a point read;
    every restart costs 4 bytes plus one key stored whole.  SST files use
    the default, RocksDB's 16.
    """

    def __init__(self, restart_interval: int = 16) -> None:
        if restart_interval < 1:
            raise ValueError("restart_interval must be >= 1")
        self._restart_interval = restart_interval
        self._buffer = bytearray()
        self._restarts: list[int] = []
        self._entries_since_restart = 0
        self._last_key = b""
        self.num_entries = 0

    def add(self, key: bytes, tag: int, value: bytes) -> None:
        """Append an entry; keys must arrive in strictly increasing order."""
        if self.num_entries and key <= self._last_key:
            raise ValueError("data block keys must be strictly increasing")
        buffer = self._buffer
        if self._entries_since_restart % self._restart_interval == 0:
            self._restarts.append(len(buffer))
            shared = 0
            self._entries_since_restart = 0
        else:
            shared = _shared_prefix_len(self._last_key, key)
        unshared = key[shared:]
        unshared_len, value_len = len(unshared), len(value)
        if shared | unshared_len | value_len < 0x80:
            # Three one-byte varints and the tag, appended in one step.
            buffer += bytes((shared, unshared_len, value_len, tag))
        else:
            buffer += encode_varint(shared)
            buffer += encode_varint(unshared_len)
            buffer += encode_varint(value_len)
            buffer.append(tag)
        buffer += unshared
        buffer += value
        self._last_key = key
        self._entries_since_restart += 1
        self.num_entries += 1

    def size_estimate(self) -> int:
        """Bytes the finished block will occupy (approximately)."""
        return len(self._buffer) + 4 * len(self._restarts) + 12

    def finish(self) -> bytes:
        """Seal the block: body + restart array + counts + CRC32."""
        restarts = self._restarts
        out = self._buffer + struct.pack(
            f"<{len(restarts) + 2}I", *restarts, len(restarts), self.num_entries
        )
        out += _U32.pack(zlib.crc32(out))
        return bytes(out)


def _restart_bounds(payload: bytes) -> tuple[int, ...]:
    """Verify a data block's CRC32 and restart array; returns the intervals.

    Restart interval ``i`` is ``[bounds[i], bounds[i + 1])``; the last bound
    is where the entries end.  What both readers rely on is checked here: the
    restart array lies inside the body, its offsets ascend from 0 and stay
    inside the entries.
    """
    size = len(payload) - 4
    if size < 12:  # a trailer and one restart offset
        raise CorruptionError("data block too small")
    if zlib.crc32(memoryview(payload)[:size]) != _U32.unpack_from(payload, size)[0]:
        raise CorruptionError("data block checksum mismatch")
    (num_restarts,) = _U32.unpack_from(payload, size - 8)
    entries_end = size - 8 - 4 * num_restarts
    if entries_end < 0:
        raise CorruptionError("data block restart array overflow")
    bounds = struct.unpack_from(f"<{num_restarts}I", payload, entries_end)
    bounds += (entries_end,)
    if bounds[0] != 0:
        raise CorruptionError("data block restart points do not start at 0")
    for index in range(num_restarts):
        if bounds[index] >= bounds[index + 1]:
            raise CorruptionError("data block restart offsets out of order")
    return bounds


def _entry_header(payload: bytes, offset: int, end: int) -> tuple[int, int, int, int]:
    """Parse the entry at ``offset`` of a restart interval stopping at ``end``.

    Returns ``(shared, key_start, value_start, value_end)``; the tag is the
    byte before ``key_start``.  One-byte varints (any length < 128) are read
    in place.  Indexing cannot leave the payload: a multi-byte varint is
    bounded by ``end``, at most four one-byte reads follow it, and the
    12-byte trailer lies beyond ``end``.
    """
    shared = payload[offset]
    if shared < 0x80:
        offset += 1
    else:
        shared, offset = decode_varint(payload, offset, end)
    unshared_len = payload[offset]
    if unshared_len < 0x80:
        offset += 1
    else:
        unshared_len, offset = decode_varint(payload, offset, end)
    value_len = payload[offset]
    if value_len < 0x80:
        offset += 1
    else:
        value_len, offset = decode_varint(payload, offset, end)
    key_start = offset + 1
    value_start = key_start + unshared_len
    value_end = value_start + value_len
    if value_end > end:
        raise CorruptionError("data block entry runs past its restart interval")
    return shared, key_start, value_start, value_end


def decode_data_block(payload: bytes) -> list[tuple[bytes, int, bytes]]:
    """Decode a data block into ``[(key, tag, value), ...]``.

    The full read (scans, compaction, verify, repair): the checks of
    :func:`seek_data_block`, applied to every restart interval — each starts
    from an empty key, so a restart entry that shares anything is rejected
    with the rest — plus the advertised entry count, which only a reader that
    visits every entry can check.
    """
    bounds = _restart_bounds(payload)
    entries: list[tuple[bytes, int, bytes]] = []
    append = entries.append
    for index in range(len(bounds) - 1):
        offset, end = bounds[index], bounds[index + 1]
        key = b""
        while offset < end:
            shared, key_start, value_start, offset = _entry_header(payload, offset, end)
            if shared > len(key):
                raise CorruptionError("data block entry shares more than its predecessor")
            key = key[:shared] + payload[key_start:value_start]
            append((key, payload[key_start - 1], payload[value_start:offset]))
    (num_entries,) = _U32.unpack_from(payload, len(payload) - 8)
    if len(entries) != num_entries:
        raise CorruptionError(
            f"data block advertised {num_entries} entries, decoded {len(entries)}"
        )
    return entries


def seek_data_block(payload: bytes, key: bytes) -> tuple[int, bytes] | None:
    """Find ``key`` in a data block: ``(tag, value)``, or None when absent.

    The point-read counterpart of :func:`decode_data_block`: verify the
    CRC32 and restart array, bisect the restart points on the full keys
    stored there, then walk the one restart interval that can hold ``key``,
    rebuilding keys until one is ``>= key``.  Everything the search relies on
    is checked — a restart entry shares nothing, every entry ends inside its
    interval.  The advertised entry count is not: nothing here counts
    entries, so that check stays with the full decode.
    """
    bounds = _restart_bounds(payload)

    # The last restart point whose key is <= key (the first, if none is).
    low, high = 0, len(bounds) - 2
    while low < high:
        mid = (low + high + 1) >> 1
        shared, key_start, value_start, _ = _entry_header(
            payload, bounds[mid], bounds[mid + 1]
        )
        if shared:
            raise CorruptionError("data block restart entry shares a prefix")
        if payload[key_start:value_start] <= key:
            low = mid
        else:
            high = mid - 1

    offset, end = bounds[low], bounds[low + 1]
    current = b""
    while offset < end:
        shared, key_start, value_start, value_end = _entry_header(payload, offset, end)
        if shared > len(current):
            raise CorruptionError("data block entry shares more than its predecessor")
        current = current[:shared] + payload[key_start:value_start]
        if current >= key:
            if current == key:
                return payload[key_start - 1], payload[value_start:value_end]
            return None
        offset = value_end
    return None


def encode_index_block(
    entries: list[tuple[bytes, BlockHandle]]
) -> bytes:
    """Encode fence pointers: (last key of block, handle) per data block."""
    out = bytearray(struct.pack("<I", len(entries)))
    for key, handle in entries:
        out += encode_varint(len(key))
        out += key
        out += handle.to_bytes()
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    return bytes(out)


def decode_index_block(payload: bytes) -> list[tuple[bytes, BlockHandle]]:
    """Decode :func:`encode_index_block` output (checksum-verified)."""
    if len(payload) < 8:
        raise CorruptionError("index block too small")
    body, crc_bytes = payload[:-4], payload[-4:]
    if zlib.crc32(body) != struct.unpack("<I", crc_bytes)[0]:
        raise CorruptionError("index block checksum mismatch")
    (count,) = struct.unpack("<I", body[:4])
    offset = 4
    entries: list[tuple[bytes, BlockHandle]] = []
    for _ in range(count):
        key_len, offset = decode_varint(body, offset)
        key = body[offset : offset + key_len]
        offset += key_len
        handle = BlockHandle.from_bytes(body[offset : offset + 16])
        offset += 16
        entries.append((key, handle))
    return entries


def _shared_prefix_len(a: bytes, b: bytes) -> int:
    """Leading bytes ``a`` and ``b`` have in common: the big-endian XOR of
    two equal-length strings is zero down to the first differing byte."""
    limit = len(a)
    if limit != len(b):
        limit = min(limit, len(b))
        a, b = a[:limit], b[:limit]
    differing = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    return limit - (differing.bit_length() + 7 >> 3)
