"""Tests for the store integrity checker (DB.verify)."""

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
        assert report.ok, report.summary()
        assert report.files_checked == db.num_live_files()
        assert report.entries_checked == 2000
        assert report.filters_checked == report.files_checked
        assert "OK" in report.summary()
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
        assert "ERROR" in report.summary()
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
