"""Tests for the scan iterator and multi_get."""

import pytest

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

    def test_multi_get(self, loaded_db):
        result = loaded_db.multi_get([0, 3, 6, 7])
        assert result == {0: b"0", 3: None, 6: b"6", 7: None}
