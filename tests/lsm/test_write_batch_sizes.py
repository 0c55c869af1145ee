"""Tests for WriteBatch encoding and atomicity."""

import os

import pytest

from repro.errors import StoreError
from repro.lsm.db import DB
from repro.lsm.format import ValueTag
from repro.lsm.write_batch import WriteBatch


class TestWriteBatchEncoding:
    def test_roundtrip(self):
        batch = WriteBatch()
        batch.put(b"key-a", b"value-a")
        batch.delete(b"key-b")
        batch.put(b"key-c", b"")
        decoded = WriteBatch.decode(batch.encode())
        assert list(decoded) == [
            (ValueTag.PUT, b"key-a", b"value-a"),
            (ValueTag.DELETE, b"key-b", b""),
            (ValueTag.PUT, b"key-c", b""),
        ]

    def test_empty_roundtrip(self):
        assert len(WriteBatch.decode(WriteBatch().encode())) == 0

    def test_chaining(self):
        batch = WriteBatch().put(b"a", b"1").delete(b"b")
        assert len(batch) == 2

    def test_corrupt_payload_rejected(self):
        with pytest.raises(StoreError):
            WriteBatch.decode(b"\x05\x00\x00\x00\x01")


class TestBatchWrites:
    def test_batch_applies_in_order(self, tmp_path, small_db_options):
        db = DB(str(tmp_path / "b"), small_db_options)
        batch = db.batch()
        batch.put_int(1, b"first").put_int(1, b"second").delete_int(2)
        db.write(batch)
        assert db.get(1) == b"second"
        assert db.get(2) is None
        assert db.stats.writes == 3
        db.close()

    def test_empty_batch_is_noop(self, tmp_path, small_db_options):
        db = DB(str(tmp_path / "b"), small_db_options)
        db.write(db.batch())
        assert db.stats.writes == 0
        db.close()

    def test_batch_survives_crash_whole(self, tmp_path, small_db_options):
        path = str(tmp_path / "b")
        db = DB(path, small_db_options)
        batch = db.batch().put_int(10, b"x").put_int(11, b"y").delete_int(10)
        db.write(batch)
        db._env.close()  # noqa: SLF001 - simulate crash, no flush
        db2 = DB(path, small_db_options)
        assert db2.get(10) is None
        assert db2.get(11) == b"y"
        db2.close()

    def test_torn_batch_drops_entirely(self, tmp_path, small_db_options):
        path = str(tmp_path / "b")
        db = DB(path, small_db_options)
        db.put(1, b"before")  # separate, intact frame
        db.write(db.batch().put_int(2, b"in-batch").put_int(3, b"also"))
        db._env.close()  # noqa: SLF001
        wal = f"{path}/wal.log"
        with open(wal, "r+b") as handle:
            handle.truncate(os.path.getsize(wal) - 2)  # tear the batch frame
        db2 = DB(path, small_db_options)
        assert db2.get(1) == b"before"
        assert db2.get(2) is None  # all-or-nothing
        assert db2.get(3) is None
        db2.close()

    def test_large_batch_triggers_flush(self, tmp_path, small_db_options):
        db = DB(str(tmp_path / "b"), small_db_options)
        batch = db.batch()
        for i in range(2000):
            batch.put_int(i, bytes(16))
        db.write(batch)
        assert db.num_live_files() >= 1
        assert db.get(1999) == bytes(16)
        db.close()

