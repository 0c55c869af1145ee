"""Tests for the scan iterator and multi_get."""

from dataclasses import replace

import pytest

from repro.bench.factories import make_factory
from repro.lsm.db import DB


class TestIteratorAndMultiGet:
    @pytest.fixture
    def loaded_db(self, tmp_path, small_db_options):
        db = DB(str(tmp_path / "scan"), small_db_options)
        for i in range(0, 3000, 3):
            db.put(i, str(i).encode())
        db.flush()
        db.put(1500, b"overwritten")  # in-memtable shadow
        db.delete(3)
        yield db
        db.close()

    def test_full_scan_ordered(self, loaded_db):
        scanned = list(loaded_db.iterator())
        keys = [k for k, _ in scanned]
        assert keys == sorted(keys)
        assert len(keys) == 999  # 1000 puts, one deleted

    def test_scan_sees_memtable_shadow(self, loaded_db):
        result = dict(loaded_db.iterator(start=1500, end=1500))
        assert result == {1500: b"overwritten"}

    def test_scan_excludes_tombstones(self, loaded_db):
        assert 3 not in dict(loaded_db.iterator(end=10))

    def test_bounded_scan(self, loaded_db):
        scanned = list(loaded_db.iterator(start=30, end=60))
        assert [k for k, _ in scanned] == [30, 33, 36, 39, 42, 45, 48, 51,
                                           54, 57, 60]

    def test_scan_start_beyond_data(self, loaded_db):
        assert list(loaded_db.iterator(start=10**6)) == []

    def test_scan_probes_no_filter_and_publishes_no_query(
        self, tmp_path, small_db_options
    ):
        """``iterator()`` is ``range_iter``'s merge with the probe off: no
        filter asked, nothing for the tracker or ``last_query``; its block
        reads still land in ``stats``."""
        options = replace(
            small_db_options,
            filter_factory=make_factory("rosetta", 32, 14, max_range=64),
        )
        db = DB(str(tmp_path / "probe-off"), options)
        for key in range(0, 3000, 3):
            db.put(key, b"v")
        db.flush()
        db.range_query(31, 32)
        query, tracker = db.last_query, db.tracker.to_dict()
        probes, reads = db.stats.filter_probes, db.stats.block_reads
        assert probes > 0
        assert len(list(db.iterator())) == 1000
        assert db.last_query is query
        assert db.tracker.to_dict() == tracker
        assert db.stats.filter_probes == probes
        assert db.stats.block_reads > reads
        db.close()

    def test_multi_get(self, loaded_db):
        result = loaded_db.multi_get([0, 3, 6, 7])
        assert result == {0: b"0", 3: None, 6: b"6", 7: None}
