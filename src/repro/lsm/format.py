"""On-disk block encodings for SST files (RocksDB-style).

Data blocks use restart-point prefix compression: within a block, each
entry stores how many key bytes it shares with its predecessor, and every
``restart_interval`` entries a *restart point* stores the full key so a
reader can binary-search restart points and scan forward
(:meth:`DataBlock.seek`, the point read; :func:`decode_data_block`, the
cursor every scan reads a block through, seeks the same way).  Blocks end
with the restart offset array, its length, the entry count, and a CRC32
checksum.  A :class:`DataBlock` is a block verified once, as it comes off
the device; the block cache holds those, and keys an index over the ones
it reads twice (:meth:`DataBlock.indexed`).

Entries carry a one-byte value tag distinguishing puts from deletion
tombstones — the merge machinery needs tombstones to shadow older values
until they reach the bottom level.

Index blocks map each data block's *last key* to its (offset, size); the
in-memory form of an index block is exactly the paper's fence pointers.
"""

from __future__ import annotations

import re
import struct
import sys
import zlib
from array import array
from bisect import bisect_right
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple

from repro.errors import CorruptionError

__all__ = [
    "ValueTag",
    "BlockHandle",
    "encode_varint",
    "decode_varint",
    "DataBlock",
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
    """Encodes strictly increasing entries into prefix-compressed data blocks.

    :meth:`extend` is the one encoding loop; :meth:`add` is a one-entry call
    into it.  It keeps the open block's size and the finished blocks' total
    as running ints, and the previous key as an int, so the shared prefix of
    two equal-length keys is one XOR.  With ``block_size`` the open block is
    sealed into ``blocks`` (its last key into ``last_keys``) once its size
    reaches ``block_size``; without it the open block grows until
    :meth:`finish`.  ``int_keys`` holds every key as a big-endian int, for
    the file's filter.

    ``restart_interval`` is the longest in-block walk of a point read;
    every restart costs 4 bytes plus one key stored whole.  SST files use
    the default, RocksDB's 16.
    """

    def __init__(
        self, restart_interval: int = 16, block_size: int | None = None
    ) -> None:
        if restart_interval < 1:
            raise ValueError("restart_interval must be >= 1")
        self._restart_interval = restart_interval
        self._block_size = block_size or _UNBOUNDED
        self.blocks: list[bytes] = []
        self.last_keys: list[bytes] = []
        self.int_keys: list[int] = []
        self.num_entries = self._finished = 0
        self.first_key = self.last_key = b""
        self._new_block()

    def _new_block(self) -> None:
        self._buffer = bytearray()
        self._restarts: list[int] = []
        self.open_entries = 0
        self._size = 12  # entries + restart array + trailer + CRC32

    def extend(
        self,
        entries: Iterable[tuple[bytes, int, bytes]],
        file_limit: int | None = None,
    ) -> None:
        """Encode ``entries`` until they run out or, with ``file_limit``,
        until the finished blocks plus the open block's size reach it (the
        rest of ``entries`` is left unread).

        Both cuts are checked after every entry, the block's first.
        """
        interval, block_size = self._restart_interval, self._block_size
        file_limit = file_limit or _UNBOUNDED
        blocks, last_keys = self.blocks, self.last_keys
        append_int, from_bytes = self.int_keys.append, int.from_bytes
        count, finished, last_key = self.num_entries, self._finished, self.last_key
        last_int, last_len = from_bytes(last_key, "big"), len(last_key)
        buffer, restarts = self._buffer, self._restarts
        block_entries, size = self.open_entries, self._size
        for key, tag, value in entries:
            if key <= last_key and count:
                raise ValueError("data block keys must be strictly increasing")
            key_int = from_bytes(key, "big")
            key_len = len(key)
            if block_entries % interval == 0:
                if not count:
                    self.first_key = key
                restarts.append(len(buffer))
                size += 4
                shared = 0
            elif key_len == last_len:
                shared = key_len - ((key_int ^ last_int).bit_length() + 7 >> 3)
            else:
                shared = _shared_prefix_len(last_key, key)
            unshared_len, value_len = key_len - shared, len(value)
            if shared | unshared_len | value_len < 0x80:
                # Three one-byte varints and the tag, appended in one step.
                buffer += bytes((shared, unshared_len, value_len, tag))
                size += 4
            else:
                header = b"".join((
                    encode_varint(shared),
                    encode_varint(unshared_len),
                    encode_varint(value_len),
                    bytes((tag,)),
                ))
                buffer += header
                size += len(header)
            buffer += key[shared:]
            buffer += value
            size += unshared_len + value_len
            append_int(key_int)
            last_key, last_int, last_len = key, key_int, key_len
            block_entries += 1
            count += 1
            if size >= block_size:
                blocks.append(_seal_block(buffer, restarts, block_entries))
                last_keys.append(key)
                finished += size
                buffer, restarts, block_entries, size = bytearray(), [], 0, 12
            if finished + size >= file_limit:
                break
        self.num_entries, self._finished, self.last_key = count, finished, last_key
        self._buffer, self._restarts = buffer, restarts
        self.open_entries, self._size = block_entries, size

    def finish(self) -> bytes:
        """Seal the open block into ``blocks`` and return it."""
        block = _seal_block(self._buffer, self._restarts, self.open_entries)
        self.blocks.append(block)
        self.last_keys.append(self.last_key)
        self._finished += len(block)
        self._new_block()
        return block


#: A block or file size limit nothing reaches.
_UNBOUNDED = 1 << 63


def _seal_block(buffer: bytearray, restarts: list[int], num_entries: int) -> bytes:
    """A data block: entries + restart array + counts + CRC32."""
    out = buffer + struct.pack(
        f"<{len(restarts) + 2}I", *restarts, len(restarts), num_entries
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


def _seek_restart(payload: bytes, bounds: tuple[int, ...], key: bytes) -> int:
    """Bisect the restart points on the full keys stored there: the last
    restart interval whose first key is <= ``key`` (the first, if none is)."""
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
    return low


def decode_data_block(
    block: "bytes | DataBlock", key: bytes = b""
) -> Iterator[tuple[bytes, int, bytes]]:
    """The block cursor: yield the entries ``(key, tag, value)`` at or
    above ``key``, in order, parsing one entry per step.

    Every reader that iterates a block (scans, compaction, verify, repair)
    uses it.  ``block`` is a :class:`DataBlock` (verified when it was read)
    or a raw payload, whose CRC32 and restart array are verified before the
    first entry.  The cursor bisects the restart points to ``key`` (as
    :meth:`DataBlock.seek` does); then every interval it walks is checked
    as the seek checks its one — each starts from an empty key, so a
    restart entry that shares anything is rejected with the rest.  A cursor
    that started at the block's first interval counts what it parsed and, on
    reaching the end, checks the advertised entry count; one that seeked
    past entries it never parsed cannot.
    """
    if not isinstance(block, DataBlock):
        block = DataBlock(block)
    payload, bounds = block.payload, block.bounds
    first = _seek_restart(payload, bounds, key) if key else 0
    parsed = 0
    for index in range(first, len(bounds) - 1):
        offset, end = bounds[index], bounds[index + 1]
        current = b""
        while offset < end:
            shared, key_start, value_start, offset = _entry_header(payload, offset, end)
            if shared > len(current):
                raise CorruptionError("data block entry shares more than its predecessor")
            current = current[:shared] + payload[key_start:value_start]
            parsed += 1
            if current >= key:
                yield current, payload[key_start - 1], payload[value_start:offset]
    (num_entries,) = _U32.unpack_from(payload, len(payload) - 8)
    if not first and parsed != num_entries:
        raise CorruptionError(
            f"data block advertised {num_entries} entries, decoded {parsed}"
        )


def seek_data_block(payload: bytes, key: bytes) -> tuple[int, bytes] | None:
    """Find ``key`` in a raw data block: ``(tag, value)``, or None when
    absent.  :meth:`DataBlock.seek` on the payload, verified first."""
    return DataBlock(payload).seek(key)


#: The narrowest unsigned array type that holds a key of each width 0..8.
_KEY_TYPECODES = "BBHIIQQQQ"


class DataBlock:
    """A data block parsed once: its payload and restart bounds, verified
    when it comes off the device, and, once :meth:`indexed`, a key index.

    Constructing one verifies the CRC32 and the restart array
    (:func:`_restart_bounds`), so a block that fails never exists and is
    never cached; the readers of a cached block trust both.  The block
    cache holds these, sized by ``len()``: the payload's bytes plus the
    index's.

    :meth:`seek` is the point read.  Without an index it bisects the
    restart points and walks one interval, rebuilding keys until one is
    ``>= key``; everything that search relies on is checked on the way (a
    restart entry shares nothing, every entry ends inside its interval).
    :meth:`indexed` returns the same block with an index over every entry,
    built by one full parse that also checks the advertised entry count and
    that keys ascend; the seek is then one bisect of the index and a slice
    of the value.  The store indexes a block when the cache promotes it,
    i.e. on its second read, so blocks read once never pay for a parse.

    The index holds each key once: for blocks whose keys share one width of
    at most 8 bytes (every store with ``key_bits <= 64``) as unsigned
    integers of that width, whose order is the keys' byte order; otherwise
    as the key strings.  Beside each key, the offsets of its tag and of its
    value's two ends: 14 bytes per entry for 8-byte keys in blocks under
    64 KiB, plus the two arrays' headers.
    Instances never change: indexing makes a new one.
    """

    __slots__ = ("payload", "bounds", "_keys", "_width", "_spans", "_index_bytes")

    def __init__(self, payload: bytes) -> None:
        self.payload = payload
        self.bounds = _restart_bounds(payload)
        self._keys = None
        self._index_bytes = 0

    def __len__(self) -> int:
        return len(self.payload) + self._index_bytes

    def seek(self, key: bytes) -> tuple[int, bytes] | None:
        """``(tag, value)`` of ``key``, or None when the block lacks it."""
        keys = self._keys
        if keys is not None:
            width = self._width
            if width is None:
                probe = key
            elif len(key) == width:
                probe = int.from_bytes(key, "big")
            else:
                return None
            at = bisect_right(keys, probe) - 1
            if at < 0 or keys[at] != probe:
                return None
            spans, payload, at = self._spans, self.payload, 3 * at
            return payload[spans[at]], payload[spans[at + 1] : spans[at + 2]]
        payload, bounds = self.payload, self.bounds
        low = _seek_restart(payload, bounds, key)
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

    def indexed(self) -> "DataBlock":
        """This block with its key index (itself, if it has one)."""
        if self._keys is not None:
            return self
        payload, bounds = self.payload, self.bounds
        keys: list[bytes] = []
        spans: list[int] = []  # tag offset, value start, value end per entry
        for index in range(len(bounds) - 1):
            offset, end = bounds[index], bounds[index + 1]
            current, current_len = b"", 0
            while offset < end:
                shared, key_start, value_start, offset = _entry_header(
                    payload, offset, end
                )
                if shared > current_len:
                    raise CorruptionError(
                        "data block entry shares more than its predecessor"
                    )
                current = current[:shared] + payload[key_start:value_start]
                current_len = shared + value_start - key_start
                if keys and current <= keys[-1]:
                    raise CorruptionError("data block keys do not ascend")
                keys.append(current)
                spans += (key_start - 1, value_start, offset)
        (num_entries,) = _U32.unpack_from(payload, len(payload) - 8)
        if len(keys) != num_entries:
            raise CorruptionError(
                f"data block advertised {num_entries} entries, decoded {len(keys)}"
            )
        block = DataBlock.__new__(DataBlock)
        block.payload, block.bounds = payload, bounds
        widths = set(map(len, keys))
        width = widths.pop()
        if width <= 8 and not widths:
            block._width = width
            # From a list, not an iterator: the array is then sized exactly.
            block._keys = array(
                _KEY_TYPECODES[width], list(map(int.from_bytes, keys, repeat("big")))
            )
            key_bytes = sys.getsizeof(block._keys)
        else:
            block._width = None
            block._keys = tuple(keys)
            key_bytes = sys.getsizeof(block._keys) + sum(map(sys.getsizeof, keys))
        block._spans = array("H" if len(payload) <= 0xFFFF else "I", spans)
        block._index_bytes = key_bytes + sys.getsizeof(block._spans)
        return block


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
