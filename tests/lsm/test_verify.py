"""Tests for the store integrity checker (DB.verify)."""

import struct
import zlib
from dataclasses import replace

import pytest

from repro.bench.factories import make_factory
from repro.lsm.block_cache import BlockCache
from repro.lsm.db import DB
from repro.lsm.options import DBOptions
from repro.lsm.sstable import SSTReader
from repro.lsm.verify import VerificationReport, verify_sst


def _db(tmp_path, name="vdb", with_filter=True) -> DB:
    options = DBOptions(
        key_bits=32,
        memtable_size_bytes=8 << 10,
        sst_size_bytes=32 << 10,
        block_size_bytes=1024,
        block_cache_bytes=0,
        filter_factory=(
            make_factory("rosetta", 32, 14, max_range=32) if with_filter
            else None
        ),
    )
    db = DB(str(tmp_path / name), options)
    for i in range(2000):
        db.put(i * 11, f"v{i}".encode())
    db.flush()
    return db


def _flip(path: str, offset: int) -> None:
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


class TestVerify:
    def test_clean_store_passes(self, tmp_path):
        db = _db(tmp_path)
        report = db.verify()
        assert report.ok, report.errors
        assert report.files_checked == db.num_live_files()
        assert report.entries_checked == 2000
        assert report.filters_checked == report.files_checked
        db.close()

    def test_no_filter_store_passes(self, tmp_path):
        db = _db(tmp_path, with_filter=False)
        report = db.verify()
        assert report.ok
        assert report.filters_checked == 0
        db.close()

    def test_detects_data_corruption(self, tmp_path):
        db = _db(tmp_path)
        run = db.version.all_runs_newest_first()[0]
        _flip(db._env.path(run.name), 10)  # noqa: SLF001
        report = db.verify()
        assert not report.ok
        assert any("checksum" in e or "block" in e for e in report.errors)
        db.close()

    def test_block_that_fails_mid_read_is_reported(self, tmp_path):
        """A block whose CRC holds but whose entry count lies fails only
        once read to its end: verify reports it and goes on."""
        db = _db(tmp_path)
        run = db.version.all_runs_newest_first()[0]
        handle = run.reader._fence_pointers[1][1]  # noqa: SLF001
        path = db._env.path(run.name)  # noqa: SLF001
        with open(path, "r+b") as sst:
            sst.seek(handle.offset)
            block = bytearray(sst.read(handle.size))
            (entries,) = struct.unpack_from("<I", block, len(block) - 8)
            struct.pack_into("<I", block, len(block) - 8, entries + 1)
            struct.pack_into("<I", block, len(block) - 4, zlib.crc32(block[:-4]))
            sst.seek(handle.offset)
            sst.write(block)
        report = db.verify()
        assert (
            f"{run.name} block 1: data block advertised {entries + 1} entries, "
            f"decoded {entries}"
        ) in report.errors
        assert report.blocks_checked == sum(
            r.reader.num_data_blocks() for r in db.version.all_runs_newest_first()
        ) - 1
        db.close()

    def test_reads_the_file_not_the_block_cache(self, tmp_path):
        """Blocks cached before the file was corrupted still fail verify."""
        options = DBOptions(
            key_bits=32,
            block_size_bytes=512,
            filter_factory=make_factory("rosetta", 32, 14, max_range=32),
        )
        db = DB(str(tmp_path / "cached"), options)
        for key in range(800):
            db.put(key, f"v{key}".encode())
        db.flush()
        assert all(db.get(key) == f"v{key}".encode() for key in range(800))
        [run] = db.version.level0
        path = db._env.path(run.name)  # noqa: SLF001
        _flip(path, 100)
        report = db.verify()
        assert not report.ok
        assert any("block 0" in error for error in report.errors), report.errors
        handle = run.reader._filter_handle  # noqa: SLF001
        _flip(path, handle.offset + handle.size // 2)
        assert any("filter" in error for error in db.verify().errors)
        db.close()

    def test_reads_every_block_while_gets_answer_from_the_cache(self, tmp_path):
        """A cached block is trusted as it was verified, so gets keep
        answering from the cache after a byte under the block flips on
        disk; verify reads every block from the device and reports it."""
        options = DBOptions(
            key_bits=32,
            block_size_bytes=512,
            filter_factory=make_factory("rosetta", 32, 14, max_range=32),
        )
        db = DB(str(tmp_path / "trusted"), options)
        for key in range(800):
            db.put(key, f"v{key}".encode())
        db.flush()
        [run] = db.version.level0
        fence = int.from_bytes(run.reader._fence_pointers[0][0], "big")  # noqa: SLF001
        first_block = range(fence + 1)
        for _ in range(2):  # read twice: promoted, with its key index
            assert all(db.get(key) == f"v{key}".encode() for key in first_block)
        _flip(db._env.path(run.name), 100)  # noqa: SLF001
        before = db.stats.snapshot()
        assert all(db.get(key) == f"v{key}".encode() for key in first_block)
        delta = db.stats.diff(before)
        assert (delta.block_reads, delta.block_cache_hits) == (0, len(first_block))
        before = db.stats.snapshot()
        report = db.verify()
        delta = db.stats.diff(before)
        assert any(e.startswith(f"{run.name} block 0:") for e in report.errors)
        assert report.blocks_checked == run.reader.num_data_blocks() - 1
        # Every data block and the filter block, none through the cache.
        assert delta.block_reads == run.reader.num_data_blocks() + 1
        assert delta.block_cache_hits == delta.block_cache_misses == 0
        db.close()

    def test_detects_filter_corruption(self, tmp_path):
        db = _db(tmp_path)
        run = db.version.all_runs_newest_first()[0]
        handle = run.reader._filter_handle  # noqa: SLF001
        # Corrupt a byte in the middle of the filter payload.
        _flip(db._env.path(run.name), handle.offset + handle.size // 2)  # noqa: SLF001
        report = db.verify()
        assert not report.ok
        assert any("filter" in error for error in report.errors)
        db.close()

    def test_detects_meta_key_span_mismatch(self, tmp_path):
        """A meta block that parses but names the wrong min key."""
        db = _db(tmp_path)
        reader = db.version.all_runs_newest_first()[0].reader
        wrong = replace(reader.meta, min_key=reader.meta.max_key)
        report = VerificationReport()
        verify_sst(SSTReader(db._env, wrong, BlockCache(0)), report)  # noqa: SLF001
        assert report.errors == [
            f"{wrong.name}: meta key span does not match the data"
        ]
        db.close()

    def test_verify_after_compaction(self, tmp_path):
        db = _db(tmp_path)
        db.force_full_compaction()
        assert db.verify().ok
        db.close()

    def test_verify_counts_blocks(self, tmp_path):
        db = _db(tmp_path)
        report = db.verify()
        expected_blocks = sum(
            run.reader.num_data_blocks()
            for run in db.version.all_runs_newest_first()
        )
        assert report.blocks_checked == expected_blocks
        db.close()
