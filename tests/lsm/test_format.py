"""Unit tests for on-disk block encodings."""

import random
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptionError
from repro.lsm.block_cache import BlockCache
from repro.lsm.format import (
    BlockHandle,
    DataBlock,
    DataBlockBuilder,
    ValueTag,
    _shared_prefix_len,
    decode_data_block,
    decode_index_block,
    decode_varint,
    encode_index_block,
    encode_varint,
    seek_data_block,
)


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**32, 2**63 - 1])
    def test_roundtrip(self, value):
        payload = encode_varint(value)
        decoded, offset = decode_varint(payload, 0)
        assert decoded == value
        assert offset == len(payload)

    def test_compactness(self):
        assert len(encode_varint(0)) == 1
        assert len(encode_varint(127)) == 1
        assert len(encode_varint(128)) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_varint(-1)

    def test_truncated(self):
        with pytest.raises(CorruptionError):
            decode_varint(b"\x80", 0)

    def test_overlong_rejected(self):
        with pytest.raises(CorruptionError):
            decode_varint(b"\x80" * 12, 0)


class TestDataBlock:
    def _entries(self, n=50):
        return [
            (f"key-{i:05d}".encode(), ValueTag.PUT, f"value-{i}".encode())
            for i in range(n)
        ]

    def test_roundtrip(self):
        builder = DataBlockBuilder(restart_interval=8)
        entries = self._entries()
        for key, tag, value in entries:
            builder.extend([(key, tag, value)])
        decoded = list(decode_data_block(builder.finish()))
        assert decoded == entries

    def test_prefix_compression_saves_space(self):
        shared = DataBlockBuilder(restart_interval=64)
        for key, tag, value in self._entries(200):
            shared.extend([(key, tag, value)])
        compressed_size = len(shared.finish())
        raw_size = sum(len(k) + len(v) + 4 for k, _, v in self._entries(200))
        assert compressed_size < raw_size

    def test_tombstones_roundtrip(self):
        builder = DataBlockBuilder()
        builder.extend([(b"dead", ValueTag.DELETE, b"")])
        builder.extend([(b"live", ValueTag.PUT, b"v")])
        decoded = list(decode_data_block(builder.finish()))
        assert decoded[0] == (b"dead", ValueTag.DELETE, b"")
        assert decoded[1] == (b"live", ValueTag.PUT, b"v")

    def test_out_of_order_rejected(self):
        builder = DataBlockBuilder()
        builder.extend([(b"b", ValueTag.PUT, b"")])
        with pytest.raises(ValueError):
            builder.extend([(b"a", ValueTag.PUT, b"")])
        with pytest.raises(ValueError):
            builder.extend([(b"b", ValueTag.PUT, b"")])  # duplicates too

    def test_checksum_detects_corruption(self):
        builder = DataBlockBuilder()
        builder.extend([(b"k", ValueTag.PUT, b"v")])
        payload = bytearray(builder.finish())
        payload[0] ^= 0xFF
        with pytest.raises(CorruptionError):
            list(decode_data_block(bytes(payload)))

    def test_too_small_rejected(self):
        with pytest.raises(CorruptionError):
            list(decode_data_block(b"tiny"))

    def test_restart_interval_one(self):
        builder = DataBlockBuilder(restart_interval=1)
        entries = self._entries(10)
        for key, tag, value in entries:
            builder.extend([(key, tag, value)])
        assert list(decode_data_block(builder.finish())) == entries

    def test_size_estimate_tracks_growth(self):
        initial = len(DataBlockBuilder().finish())
        builder = DataBlockBuilder()
        builder.extend([(b"abcdef", ValueTag.PUT, b"x" * 100)])
        assert len(builder.finish()) > initial + 100


class TestIndexBlock:
    def test_roundtrip(self):
        entries = [
            (b"key-a", BlockHandle(0, 100)),
            (b"key-b", BlockHandle(100, 250)),
            (b"key-z", BlockHandle(350, 17)),
        ]
        decoded = decode_index_block(encode_index_block(entries))
        assert decoded == entries

    def test_empty(self):
        assert decode_index_block(encode_index_block([])) == []

    def test_checksum_detects_corruption(self):
        payload = bytearray(encode_index_block([(b"k", BlockHandle(0, 5))]))
        payload[4] ^= 0x01
        with pytest.raises(CorruptionError):
            decode_index_block(bytes(payload))

    def test_block_handle_roundtrip(self):
        handle = BlockHandle(123456789, 987)
        assert BlockHandle.from_bytes(handle.to_bytes()) == handle


@settings(max_examples=100, deadline=None)
@given(
    entries=st.lists(
        st.tuples(
            # Mixed lengths: the builder's unequal-length prefix comparison.
            st.binary(min_size=1, max_size=12),
            st.sampled_from([ValueTag.PUT, ValueTag.DELETE]),
            # Either side of 128 bytes: one-byte and two-byte length headers.
            st.one_of(st.just(b""), st.binary(max_size=30), st.binary(max_size=300)),
        ),
        min_size=1,
        max_size=60,
        unique_by=lambda e: e[0],
    ),
    restart=st.integers(min_value=1, max_value=20),
)
def test_property_data_block_roundtrip(entries, restart):
    """What the builder wrote is what both readers return."""
    entries = sorted(entries, key=lambda e: e[0])
    builder = DataBlockBuilder(restart_interval=restart)
    for key, tag, value in entries:
        builder.extend([(key, tag, value)])
    block = builder.finish()
    assert list(decode_data_block(block)) == entries
    for key, tag, value in entries:
        assert seek_data_block(block, key) == (tag, value)


def _shared_prefix_len_reference(a: bytes, b: bytes) -> int:
    """The byte loop the builder used before it compared keys as integers."""
    limit = min(len(a), len(b))
    for index in range(limit):
        if a[index] != b[index]:
            return index
    return limit


@settings(max_examples=300)
@given(
    a=st.binary(max_size=24),
    data=st.data(),
)
def test_property_shared_prefix_len_equals_byte_loop(a, data):
    same_length = st.binary(min_size=len(a), max_size=len(a))
    pairs = [
        (a, a),  # identical keys
        (a, data.draw(same_length)),
        (a, data.draw(st.binary(max_size=24))),  # unequal lengths
        (a, a[: data.draw(st.integers(0, len(a)))] + data.draw(st.binary(max_size=4))),
    ]
    if a:
        pairs.append((a, a[:-1] + bytes([a[-1] ^ 1])))  # last bit only
        pairs.append((a, bytes([a[0] ^ 0x80]) + a[1:]))  # first bit only
    for left, right in pairs:
        expected = _shared_prefix_len_reference(left, right)
        assert _shared_prefix_len(left, right) == expected
        assert _shared_prefix_len(right, left) == expected


# ----------------------------------------------------------------------
# seek_data_block: the point read is held to the decoder it replaces
# ----------------------------------------------------------------------
def _build(entries, restart):
    builder = DataBlockBuilder(restart_interval=restart)
    for key, tag, value in entries:
        builder.extend([(key, tag, value)])
    return builder.finish()


def _entry(shared, unshared, value, *, unshared_len=None, value_len=None):
    """One raw entry; the length overrides let a header lie about its body."""
    return (
        encode_varint(shared)
        + encode_varint(len(unshared) if unshared_len is None else unshared_len)
        + encode_varint(len(value) if value_len is None else value_len)
        + bytes([ValueTag.PUT])
        + unshared
        + value
    )


def _seal(entries, restarts, *, claimed_restarts=None):
    """Hand-built block with a *valid* CRC over whatever structure is given."""
    out = b"".join(entries)
    out += b"".join(struct.pack("<I", restart) for restart in restarts)
    out += struct.pack(
        "<II",
        len(restarts) if claimed_restarts is None else claimed_restarts,
        len(entries),
    )
    return out + struct.pack("<I", zlib.crc32(out))


class TestSeekDataBlock:
    ENTRIES = [
        (f"key-{i:03d}".encode(), ValueTag.PUT, f"value-{i}".encode())
        for i in range(0, 40, 2)
    ]

    def test_golden_bytes(self):
        """The on-disk block format is what it was before readers seeked."""
        block = _build(
            [
                (b"apple", ValueTag.PUT, b"1"),
                (b"apricot", ValueTag.DELETE, b""),
                (b"banana", ValueTag.PUT, b"33"),
            ],
            restart=2,
        )
        # Produced by the builder as it stood before seek_data_block existed.
        assert block.hex() == (
            "000501006170706c6531"  # shared 0, "apple", PUT, "1"
            "020500017269636f74"  # shared 2, "ricot", DELETE, ""
            "0006020062616e616e613333"  # restart: shared 0, "banana", PUT, "33"
            "0000000013000000"  # restart offsets 0, 19
            "0200000003000000"  # 2 restarts, 3 entries
            "595b6e4b"  # CRC32
        )

    @pytest.mark.parametrize("restart", [1, 2, 3, 16, 64])
    def test_hit_miss_and_edges(self, restart):
        block = _build(self.ENTRIES, restart)
        for key, tag, value in self.ENTRIES:
            assert seek_data_block(block, key) == (tag, value)
            assert seek_data_block(block, key + b"\x00") is None  # extension
            assert seek_data_block(block, key[:-1]) is None  # strict prefix
        assert seek_data_block(block, b"") is None  # below the first key
        assert seek_data_block(block, b"key-001") is None  # inside a gap
        assert seek_data_block(block, b"zzz") is None  # above the last key

    @pytest.mark.parametrize("restart", [1, 4, 16, 1000])
    def test_seek_equals_decode(self, restart):
        """Every stored key and every gap around it, per restart interval
        (1000 leaves one restart point: the seek walks the whole block)."""
        entries = [
            (
                (i * 7).to_bytes(4, "big"),
                ValueTag.DELETE if i % 11 == 0 else ValueTag.PUT,
                b"" if i % 11 == 0 else b"v%d" % i,
            )
            for i in range(1, 600)
        ]
        block = _build(entries, restart)
        assert list(decode_data_block(block)) == entries
        for key, tag, value in entries:
            assert seek_data_block(block, key) == (tag, value)
            number = int.from_bytes(key, "big")
            for absent in (number - 1, number + 1, number + 6):
                assert seek_data_block(block, absent.to_bytes(4, "big")) is None
            assert seek_data_block(block, key[:-1]) is None
            assert seek_data_block(block, key + b"\x00") is None

    def test_tombstone_returned_with_its_tag(self):
        block = _build([(b"a", ValueTag.PUT, b"1"), (b"b", ValueTag.DELETE, b"")], 16)
        assert seek_data_block(block, b"b") == (ValueTag.DELETE, b"")

    def test_too_small_rejected(self):
        """Same floor as the decoder: an entry-less block is not a block."""
        for payload in (b"", b"tiny", b"\x00" * 15, DataBlockBuilder().finish()):
            with pytest.raises(CorruptionError):
                list(decode_data_block(payload))
            with pytest.raises(CorruptionError):
                seek_data_block(payload, b"k")

    def test_every_single_bit_flip_detected(self):
        block = _build(self.ENTRIES[:6], restart=2)
        for position in range(len(block) * 8):
            flipped = bytearray(block)
            flipped[position // 8] ^= 1 << (position % 8)
            with pytest.raises(CorruptionError):
                seek_data_block(bytes(flipped), self.ENTRIES[3][0])

    def test_valid_crc_over_sealed_reference_block(self):
        """The hand-sealing helper itself produces what the builder does."""
        entries = [_entry(0, b"aa", b"1"), _entry(1, b"b", b"2")]
        assert _seal(entries, [0]) == _build(
            [(b"aa", ValueTag.PUT, b"1"), (b"ab", ValueTag.PUT, b"2")], 16
        )

    # One list for both readers: whatever the seek refuses to search, the
    # full decode refuses to return (before PR 22 it returned all of these
    # but the first as entries, one with the restart array as its value).
    # Every raw entry below is 6 bytes: three 1-byte lengths, tag, key, value.
    @pytest.mark.parametrize(
        ("block", "probe"),
        [
            pytest.param(
                _seal([_entry(0, b"a", b"1")], [0], claimed_restarts=1000),
                b"a",
                id="restart-count-overruns-body",
            ),
            pytest.param(
                _seal([_entry(0, b"a", b"1")], [], claimed_restarts=0),
                b"a",
                id="entries-without-a-restart-point",
            ),
            pytest.param(
                _seal([_entry(0, b"a", b"1"), _entry(0, b"b", b"2")], [0, 9999]),
                b"a",
                id="restart-offset-past-body",
            ),
            pytest.param(
                _seal([_entry(0, b"a", b"1"), _entry(0, b"b", b"2")], [0, 12]),
                b"a",
                id="restart-offset-at-entries-end",
            ),
            pytest.param(
                _seal([_entry(0, b"a", b"1"), _entry(0, b"b", b"2")], [6]),
                b"b",
                id="first-restart-not-at-zero",
            ),
            pytest.param(
                _seal(
                    [_entry(0, b"a", b"1"), _entry(0, b"b", b"2"), _entry(0, b"c", b"3")],
                    [0, 12, 6],
                ),
                b"a",
                id="descending-restart-offsets",
            ),
            pytest.param(
                _seal([_entry(0, b"a", b"1"), _entry(0, b"b", b"2")], [0, 0]),
                b"a",
                id="repeated-restart-offset",
            ),
            pytest.param(
                _seal([_entry(1, b"a", b"1")], [0]),
                b"a",
                id="first-restart-entry-shares",
            ),
            pytest.param(
                _seal([_entry(0, b"a", b"1"), _entry(1, b"b", b"2")], [0, 6]),
                b"ab",
                id="bisected-restart-entry-shares",
            ),
            pytest.param(
                _seal([_entry(0, b"a", b"1"), _entry(2, b"b", b"2")], [0]),
                b"ab",
                id="shares-more-than-predecessor",
            ),
            pytest.param(
                _seal([_entry(0, b"a", b"1"), _entry(0, b"b", b"2", value_len=40)], [0]),
                b"b",
                id="final-value-runs-past-interval",
            ),
            pytest.param(
                _seal([_entry(0, b"a", b"1"), _entry(0, b"b", b"2", unshared_len=300)], [0]),
                b"b",
                id="final-key-runs-past-interval",
            ),
            pytest.param(
                _seal([_entry(0, b"a", b"1"), b"\x00\x01\x80"], [0]),
                b"b",
                id="final-varint-runs-past-interval",
            ),
            pytest.param(
                _seal([_entry(0, b"a", b"1", value_len=2), _entry(0, b"b", b"2")], [0, 6]),
                b"a",
                id="entry-crosses-into-next-interval",
            ),
            pytest.param(
                _seal([_entry(0, b"a", b"1"), _entry(0, b"b", b"2", value_len=9)], [0]),
                b"b",
                id="final-value-swallows-restart-array-and-counts",
            ),
            pytest.param(
                # The restart array's four zero bytes parse as an empty entry.
                _seal([_entry(0, b"a", b"1"), struct.pack("<I", 0)], [], claimed_restarts=0),
                b"a",
                id="header-starts-inside-restart-array",
            ),
            pytest.param(
                _seal([_entry(0, b"a", b"1"), b"\x80"], [0]),
                b"b",
                id="final-shared-varint-truncated",
            ),
            pytest.param(
                _seal([_entry(0, b"a", b"1"), b"\x00\xff\xff"], [0]),
                b"b",
                id="final-key-length-varint-truncated",
            ),
        ],
    )
    def test_malformed_block_with_valid_crc_rejected(self, block, probe):
        assert zlib.crc32(block[:-4]) == struct.unpack("<I", block[-4:])[0]
        with pytest.raises(CorruptionError):
            seek_data_block(block, probe)
        with pytest.raises(CorruptionError):
            list(decode_data_block(block))
        with pytest.raises(CorruptionError):
            list(decode_data_block(block, probe))

    def test_entry_count_checked_on_every_block_read_to_its_end(self):
        """Three entries where the trailer advertises two: a cursor that read
        the block from its first interval to its end refuses it, after the
        entries it could return; the seek, which counts nothing, and a
        cursor that seeked past the first interval cannot tell."""
        block = _seal(
            [_entry(0, b"a", b"1") + _entry(0, b"b", b"2"), _entry(0, b"c", b"3")],
            [0, 12],
        )
        assert struct.unpack_from("<I", block, len(block) - 8)[0] == 2
        for probe in (b"", b"a", b"b", b"bb"):
            cursor = decode_data_block(block, probe)
            assert next(cursor)[0] >= probe
            with pytest.raises(CorruptionError, match="advertised 2 entries"):
                list(cursor)
        assert list(decode_data_block(block, b"c")) == [(b"c", ValueTag.PUT, b"3")]
        assert seek_data_block(block, b"a") == (ValueTag.PUT, b"1")


_KEY_SETS = st.builds(
    lambda prefix, suffixes: sorted({prefix + suffix for suffix in suffixes}),
    st.binary(max_size=200),  # shared prefixes past 127 bytes: 2-byte `shared`
    st.lists(st.binary(min_size=1, max_size=100), min_size=1, max_size=60),
)


@settings(max_examples=150, deadline=None)
@given(
    keys=_KEY_SETS,
    restart=st.sampled_from([1, 2, 3, 16, 64]),
    extra_probes=st.lists(st.binary(max_size=300), max_size=10),
    data=st.data(),
)
def test_property_seek_equals_decode(keys, restart, extra_probes, data):
    entries = [
        (
            key,
            data.draw(st.sampled_from([ValueTag.PUT, ValueTag.DELETE])),
            data.draw(st.binary(max_size=300)),
        )
        for key in keys
    ]
    block = _build(entries, restart)
    full = list(decode_data_block(block))
    oracle = {key: (tag, value) for key, tag, value in full}
    probes = set(extra_probes) | {b"", keys[0][:-1], keys[-1] + b"\xff"}
    for key in keys:
        # equal to / strict prefix of / extension of / just past a stored key
        probes |= {key, key[:-1], key + b"\x00", key[:-1] + bytes([key[-1] ^ 1])}
    for probe in probes:
        assert seek_data_block(block, probe) == oracle.get(probe)
        # The cursor seeked to ``probe`` is the full read from there on.
        assert list(decode_data_block(block, probe)) == [
            entry for entry in full if entry[0] >= probe
        ]


# ----------------------------------------------------------------------
# DataBlock.indexed: the key index is held to the raw seek
# ----------------------------------------------------------------------
def _seeded_entries(rng: random.Random, width: int, count: int):
    """Sorted fixed-width keys, about half with a leading zero byte; a
    fifth are tombstones, and values straddle 128 bytes (one- and two-byte
    length varints)."""
    keys = sorted({
        rng.getrandbits(8 * width - 8 * rng.randrange(2)).to_bytes(width, "big")
        for _ in range(count)
    })
    return [
        (key, ValueTag.DELETE, b"") if rng.random() < 0.2
        else (key, ValueTag.PUT, rng.randbytes(rng.choice((0, 9, 127, 128, 300))))
        for key in keys
    ]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("width", [4, 8, 64])
def test_indexed_seek_equals_the_raw_seek(width, seed):
    rng = random.Random(seed)
    entries = _seeded_entries(rng, width, rng.randint(1, 90))
    payload = _build(entries, rng.choice([1, 3, 16]))
    block = DataBlock(payload).indexed()
    assert len(block) > len(payload)  # the index is charged
    assert block.indexed() is block
    top = 1 << 8 * width
    probes = {b"", bytes(width), b"\xff" * width, b"\xff" * (width + 1)}
    for key, _, _ in entries:
        number = int.from_bytes(key, "big")
        # present / strict prefix / extension / the same number at
        # another width / the gaps either side
        probes |= {key, key[:-1], key + b"\x00", key[1:], b"\x00" + key}
        probes |= {n.to_bytes(width, "big") for n in (number - 1, number + 1) if 0 <= n < top}
    for probe in probes:
        assert block.seek(probe) == seek_data_block(payload, probe), probe
    for key, tag, value in entries:
        assert block.seek(key) == (tag, value)


def test_indexed_seek_over_keys_of_mixed_widths():
    entries = [(b"a", 0, b"1"), (b"ab", 1, b""), (b"abcdefghij", 0, b"x" * 200), (b"b", 0, b"2")]
    payload = _build(entries, 2)
    block = DataBlock(payload).indexed()
    for probe in (b"", b"a", b"aa", b"ab", b"abc", b"abcdefghij", b"abcdefghijk", b"b", b"c"):
        assert block.seek(probe) == seek_data_block(payload, probe)


def test_indexing_checks_the_advertised_entry_count():
    """The full parse behind the index counts entries: a block whose
    trailer lies is refused at indexing, though the walk cannot tell."""
    under = _seal(
        [_entry(0, b"a", b"1") + _entry(0, b"b", b"2"), _entry(0, b"c", b"3")],
        [0, 12],
    )
    over = bytearray(_build(TestSeekDataBlock.ENTRIES, 4)[:-4])
    (count,) = struct.unpack_from("<I", over, len(over) - 4)
    struct.pack_into("<I", over, len(over) - 4, count + 1)
    over = bytes(over) + struct.pack("<I", zlib.crc32(over))
    for payload, probe in ((under, b"a"), (over, TestSeekDataBlock.ENTRIES[0][0])):
        block = DataBlock(payload)
        assert block.seek(probe) is not None
        with pytest.raises(CorruptionError, match="advertised"):
            block.indexed()
        # Promotion is where the cache indexes: a block that fails it leaves.
        cache = BlockCache(1 << 20, promote=DataBlock.indexed)
        cache.put(("f", 0), block)
        with pytest.raises(CorruptionError):
            cache.get(("f", 0))
        assert cache.get(("f", 0)) is None
        assert (len(cache), cache.used_bytes) == (0, 0)


def test_block_cache_charges_the_index_its_promotions_build():
    """The cache driven with the store's ``promote`` through promotions,
    demotions, evictions and ``remove_file``: it charges exactly the
    payloads plus the indexes it holds and stays within its capacity."""
    rng = random.Random(11)
    blocks = {
        (name, offset): DataBlock(_build(_seeded_entries(rng, 8, 30), 16))
        for name in ("a.sst", "b.sst", "c.sst")
        for offset in range(0, 8 * 4096, 4096)
    }
    capacity = 5 * max(len(block.indexed()) for block in blocks.values())
    cache = BlockCache(capacity, promote=DataBlock.indexed)
    seen = {"indexed in probation": 0, "index bytes": 0}
    for _ in range(3000):
        key = rng.choice(list(blocks))
        step = rng.random()
        if step < 0.35:
            cache.put(key, blocks[key])
        elif step < 0.97:
            got = cache.get(key)
            if got is not None:
                assert got.payload is blocks[key].payload
                assert key in cache._protected  # noqa: SLF001
                assert got.indexed() is got
        else:
            cache.remove_file(key[0])
            assert all(k[0] != key[0] for k in cache._probation)  # noqa: SLF001
            assert all(k[0] != key[0] for k in cache._protected)  # noqa: SLF001
        cached = {**cache._probation, **cache._protected}  # noqa: SLF001
        assert all(block.indexed() is block for block in cache._protected.values())  # noqa: SLF001
        payload_bytes = sum(len(block.payload) for block in cached.values())
        index_bytes = sum(len(block) - len(block.payload) for block in cached.values())
        assert cache.used_bytes == payload_bytes + index_bytes <= capacity
        seen["index bytes"] = max(seen["index bytes"], index_bytes)
        seen["indexed in probation"] += any(
            len(block) > len(block.payload) for block in cache._probation.values()  # noqa: SLF001
        )
    assert seen["index bytes"] > 0
    assert seen["indexed in probation"] > 0  # demoted blocks keep their index


@settings(max_examples=200, deadline=None)
@given(
    restart=st.sampled_from([1, 2, 3, 16]),
    edits=st.lists(
        st.tuples(st.integers(min_value=0), st.integers(0, 255)), min_size=1, max_size=4
    ),
)
def test_property_resealed_garbage_never_escapes_as_another_error(restart, edits):
    """Overwrite bytes, recompute the CRC: an answer or CorruptionError only."""
    body = bytearray(_build(TestSeekDataBlock.ENTRIES, restart)[:-4])
    for position, byte in edits:
        body[position % len(body)] = byte
    block = bytes(body) + struct.pack("<I", zlib.crc32(body))
    for key, _, _ in TestSeekDataBlock.ENTRIES[::3]:
        try:
            seek_data_block(block, key)
        except CorruptionError:
            pass
    try:
        list(decode_data_block(block))
    except CorruptionError:
        pass
