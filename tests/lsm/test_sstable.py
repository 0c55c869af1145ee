"""Unit tests for SST writer/reader."""

import pytest

from repro.errors import FilterBuildError
from repro.filters.base import FilterFactory
from repro.filters.bloom_point import BloomPointFilter
from repro.lsm.block_cache import BlockCache
from repro.lsm.env import StorageEnv
from repro.lsm.format import ValueTag
from repro.lsm.options import DBOptions
from repro.lsm.sstable import SSTReader, SSTWriter


def _options() -> DBOptions:
    return DBOptions(key_bits=32, block_size_bytes=512)


def _bloom_factory() -> FilterFactory:
    def build(keys):
        filt = BloomPointFilter(key_bits=32, bits_per_key=10)
        filt.populate(keys)
        return filt

    return FilterFactory("bloom", build)


def _write_sst(env, name="test.sst", n=500, factory=None, options=None):
    options = options or _options()
    writer = SSTWriter(env, name, options, filter_factory=factory)
    entries = []
    for i in range(n):
        key = (i * 7).to_bytes(4, "big")
        value = f"value-{i}".encode()
        writer.extend([(key, ValueTag.PUT, value)])
        entries.append((key, value))
    return writer.finish(), entries, options


class TestWriter:
    def test_meta_summarises_file(self, tmp_path):
        env = StorageEnv(str(tmp_path))
        meta, entries, _ = _write_sst(env)
        assert meta.num_entries == 500
        assert meta.min_key == entries[0][0]
        assert meta.max_key == entries[-1][0]
        assert meta.file_size == env.file_size(meta.name)

    def test_unsorted_keys_rejected(self, tmp_path):
        env = StorageEnv(str(tmp_path))
        writer = SSTWriter(env, "x.sst", _options())
        writer.extend([(b"\x00\x00\x00\x05", ValueTag.PUT, b"")])
        with pytest.raises(ValueError):
            writer.extend([(b"\x00\x00\x00\x04", ValueTag.PUT, b"")])

    def test_empty_sst_rejected(self, tmp_path):
        env = StorageEnv(str(tmp_path))
        with pytest.raises(FilterBuildError):
            SSTWriter(env, "x.sst", _options()).finish()

    def test_filter_construction_charged(self, tmp_path):
        env = StorageEnv(str(tmp_path))
        _write_sst(env, factory=_bloom_factory())
        assert env.stats.filters_built == 1
        assert env.stats.filter_construction_ns > 0
        assert env.stats.serialize_ns > 0

    def test_overlaps(self, tmp_path):
        env = StorageEnv(str(tmp_path))
        meta, entries, _ = _write_sst(env, n=10)
        # The span every overlap test reads: first and last key, inclusive.
        assert (meta.min_key, meta.max_key) == (entries[0][0], entries[-1][0])


class TestReader:
    def test_get_every_key(self, tmp_path):
        env = StorageEnv(str(tmp_path))
        meta, entries, options = _write_sst(env)
        reader = SSTReader(env, meta, BlockCache(1 << 20))
        for key, value in entries:
            assert reader.get(key) == (ValueTag.PUT, value)

    def test_get_absent_keys(self, tmp_path):
        env = StorageEnv(str(tmp_path))
        meta, entries, options = _write_sst(env)
        reader = SSTReader(env, meta, BlockCache(1 << 20))
        assert reader.get((1).to_bytes(4, "big")) is None  # in a gap
        assert reader.get(b"\xff\xff\xff\xff") is None  # beyond max

    def test_multiple_data_blocks(self, tmp_path):
        env = StorageEnv(str(tmp_path))
        meta, _, options = _write_sst(env, n=2000)
        reader = SSTReader(env, meta, BlockCache(1 << 20))
        assert reader.num_data_blocks() > 1

    def test_iterate_from_start(self, tmp_path):
        env = StorageEnv(str(tmp_path))
        meta, entries, options = _write_sst(env)
        reader = SSTReader(env, meta, BlockCache(1 << 20))
        scanned = [(k, v) for k, _, v in reader.iterate_from(b"")]
        assert scanned == entries

    def test_iterate_from_midpoint(self, tmp_path):
        env = StorageEnv(str(tmp_path))
        meta, entries, options = _write_sst(env)
        reader = SSTReader(env, meta, BlockCache(1 << 20))
        mid_key = entries[250][0]
        scanned = list(reader.iterate_from(mid_key))
        assert scanned[0][0] == mid_key
        assert len(scanned) == 250

    def test_iterate_from_between_keys(self, tmp_path):
        env = StorageEnv(str(tmp_path))
        meta, entries, options = _write_sst(env)
        reader = SSTReader(env, meta, BlockCache(1 << 20))
        probe = (7 * 100 + 1).to_bytes(4, "big")  # just above key 100
        scanned = list(reader.iterate_from(probe))
        assert scanned[0][0] == entries[101][0]

    def test_block_cache_serves_repeat_reads(self, tmp_path):
        env = StorageEnv(str(tmp_path))
        meta, entries, options = _write_sst(env)
        cache = BlockCache(1 << 20)
        reader = SSTReader(env, meta, cache)
        reads_before = env.stats.block_reads
        reader.get(entries[0][0])
        first_read = env.stats.block_reads - reads_before
        reader.get(entries[0][0])
        assert env.stats.block_reads - reads_before == first_read  # cached

    def test_filter_block_roundtrip(self, tmp_path):
        env = StorageEnv(str(tmp_path))
        meta, entries, options = _write_sst(env, factory=_bloom_factory())
        reader = SSTReader(env, meta, BlockCache(1 << 20))
        from repro.filters.base import deserialize_filter

        filt = deserialize_filter(reader.filter_block_bytes())
        assert isinstance(filt, BloomPointFilter)
        for key, _ in entries[:50]:
            assert filt.may_contain(int.from_bytes(key, "big"))

    def test_no_filter_block_when_factory_absent(self, tmp_path):
        env = StorageEnv(str(tmp_path))
        meta, _, options = _write_sst(env, factory=None)
        reader = SSTReader(env, meta, BlockCache(1 << 20))
        assert reader.filter_block_bytes() == b""

    def test_corrupt_footer_detected(self, tmp_path):
        env = StorageEnv(str(tmp_path))
        meta, _, options = _write_sst(env)
        path = env.path(meta.name)
        with open(path, "r+b") as handle:
            handle.seek(meta.file_size - 2)
            handle.write(b"\x00\x00")  # clobber the magic
        from repro.errors import CorruptionError

        with pytest.raises(CorruptionError):
            SSTReader(env, meta, BlockCache(0))

    def test_tombstones_preserved(self, tmp_path):
        env = StorageEnv(str(tmp_path))
        options = _options()
        writer = SSTWriter(env, "t.sst", options)
        writer.extend([(b"\x00\x00\x00\x01", ValueTag.DELETE, b"")])
        writer.extend([(b"\x00\x00\x00\x02", ValueTag.PUT, b"live")])
        meta = writer.finish()
        reader = SSTReader(env, meta, BlockCache(0))
        assert reader.get(b"\x00\x00\x00\x01") == (ValueTag.DELETE, b"")
        assert reader.get(b"\x00\x00\x00\x02") == (ValueTag.PUT, b"live")


class TestPointReadSeeks:
    """``get`` seeks inside the raw block; only scans decode whole blocks.

    Other restart intervals are the format layer's: ``test_format.py``'s
    ``test_seek_equals_decode``.
    """

    def test_get_equals_the_scan(self, tmp_path):
        env = StorageEnv(str(tmp_path))
        options = DBOptions(key_bits=32, block_size_bytes=512)
        writer = SSTWriter(env, "t.sst", options)
        for i in range(1, 600):  # min_key is 7, so there is room below it
            tag = ValueTag.DELETE if i % 11 == 0 else ValueTag.PUT
            value = b"" if tag else b"v%d" % i
            writer.extend([((i * 7).to_bytes(4, "big"), tag, value)])
        meta = writer.finish()
        reader = SSTReader(env, meta, BlockCache(1 << 20))
        assert reader.num_data_blocks() > 3
        scanned = {key: (tag, value) for key, tag, value in reader.iterate_from(b"")}
        assert len(scanned) == 599
        for key, expected in scanned.items():
            assert reader.get(key) == expected
        # Every gap: below min_key, either side of every stored key (which
        # covers the step from one block's fence key to the next block's
        # first key), above max_key, and byte strings of another length.
        for stored in scanned:
            number = int.from_bytes(stored, "big")
            for absent in (number - 1, number + 1, number + 6):
                assert reader.get(absent.to_bytes(4, "big")) is None
            assert reader.get(stored[:-1]) is None
            assert reader.get(stored + b"\x00") is None
        assert reader.get(b"") is None
        assert reader.get(b"\xff\xff\xff\xff") is None

    def test_db_point_reads_never_decode_a_block(self, tmp_path, monkeypatch):
        from repro.lsm import sstable
        from repro.lsm.db import DB

        db = DB(
            str(tmp_path / "db"),
            DBOptions(key_bits=32, memtable_size_bytes=4 << 10, block_size_bytes=512),
        )
        for i in range(1500):
            db.put(i * 3, b"v%d" % i)
        db.flush()

        def refuse(payload, key=b""):
            raise AssertionError("a point read opened a block cursor")

        monkeypatch.setattr(sstable, "decode_data_block", refuse)
        for i in range(0, 1500, 7):
            assert db.get(i * 3) == b"v%d" % i
            assert db.get(i * 3 + 1) is None
        keys = [i * 3 for i in range(0, 1500, 5)] + [1, 4, 10**9]
        assert db.multi_get(keys) == {
            key: (b"v%d" % (key // 3) if key % 3 == 0 and key < 4500 else None)
            for key in keys
        }
        with pytest.raises(AssertionError):  # the patch is live: a scan decodes
            db.range_query(0, 100)
        db.close()
