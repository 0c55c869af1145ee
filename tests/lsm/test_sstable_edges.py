"""Edge-case tests for SST files: boundaries, sizes, unusual shapes."""

import pytest

from repro.lsm.block_cache import BlockCache
from repro.lsm.env import StorageEnv
from repro.lsm.format import ValueTag
from repro.lsm.options import DBOptions
from repro.lsm.sstable import SSTReader, SSTWriter


def _write(env, entries, block_size=512, name="edge.sst"):
    options = DBOptions(key_bits=32, block_size_bytes=block_size)
    writer = SSTWriter(env, name, options)
    for key, tag, value in entries:
        writer.extend([(key, tag, value)])
    meta = writer.finish()
    return SSTReader(env, meta, BlockCache(1 << 20)), meta


def _entries(n, stride=1, value_size=8):
    return [
        ((i * stride).to_bytes(4, "big"), ValueTag.PUT, bytes(value_size))
        for i in range(n)
    ]


class TestShapes:
    def test_single_entry_sst(self, tmp_path):
        env = StorageEnv(str(tmp_path))
        reader, meta = _write(env, _entries(1))
        assert meta.num_entries == 1
        assert reader.get((0).to_bytes(4, "big")) is not None
        assert reader.num_data_blocks() == 1

    def test_value_larger_than_block_size(self, tmp_path):
        env = StorageEnv(str(tmp_path))
        big = [(b"\x00\x00\x00\x01", ValueTag.PUT, bytes(4096))]
        reader, _ = _write(env, big, block_size=512)
        tag, value = reader.get(b"\x00\x00\x00\x01")
        assert len(value) == 4096

    def test_many_blocks_every_key_findable(self, tmp_path):
        env = StorageEnv(str(tmp_path))
        entries = _entries(3000, stride=2)
        reader, _ = _write(env, entries, block_size=256)
        assert reader.num_data_blocks() > 20
        for key, _, _ in entries[::97]:
            assert reader.get(key) is not None


class TestIterationBoundaries:
    @pytest.fixture
    def reader(self, tmp_path):
        env = StorageEnv(str(tmp_path))
        reader, _ = _write(env, _entries(1000, stride=3), block_size=256)
        return reader

    def test_seek_to_exact_block_boundary_key(self, reader):
        # The last key of some block, then the first key of the next, must
        # both be reachable with no gap or duplication.
        fence_keys = reader._fence_keys  # noqa: SLF001
        boundary = fence_keys[0]
        scanned = [k for k, _, _ in reader.iterate_from(boundary)]
        assert scanned[0] == boundary
        following = [k for k, _, _ in reader.iterate_from(
            (int.from_bytes(boundary, "big") + 1).to_bytes(4, "big")
        )]
        assert following[0] > boundary
        assert len(scanned) == len(following) + 1

    def test_seek_past_end_is_empty(self, reader):
        assert list(reader.iterate_from(b"\xff\xff\xff\xff")) == []

    def test_full_scan_matches_entry_count(self, reader):
        assert len(list(reader.iterate_from(b""))) == 1000


class TestCacheInteraction:
    def test_cached_reads_skip_device(self, tmp_path):
        env = StorageEnv(str(tmp_path), device="ssd")
        reader, _ = _write(env, _entries(100))
        key = (50).to_bytes(4, "big")
        reader.get(key)
        io_after_first = env.stats.block_read_time_ns
        for _ in range(10):
            reader.get(key)
        assert env.stats.block_read_time_ns == io_after_first

    def test_uncached_store_rereads(self, tmp_path):
        env = StorageEnv(str(tmp_path))
        options = DBOptions(key_bits=32, block_size_bytes=512,
                            block_cache_bytes=0)
        writer = SSTWriter(env, "nc.sst", options)
        for key, tag, value in _entries(100):
            writer.extend([(key, tag, value)])
        meta = writer.finish()
        reader = SSTReader(env, meta, BlockCache(0))
        key = (50).to_bytes(4, "big")
        reader.get(key)
        first = env.stats.block_reads
        reader.get(key)
        assert env.stats.block_reads > first
