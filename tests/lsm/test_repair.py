"""Tests for offline store repair."""

import os
import struct

import pytest

from repro.bench.factories import make_factory
from repro.errors import ReproError, StoreError
from repro.lsm.db import DB
from repro.lsm.options import DBOptions
from repro.lsm.repair import repair_store
from repro.lsm.sstable import _FOOTER


def _options() -> DBOptions:
    return DBOptions(
        key_bits=32,
        memtable_size_bytes=8 << 10,
        sst_size_bytes=32 << 10,
        block_size_bytes=1024,
        filter_factory=make_factory("rosetta", 32, 14, max_range=32),
    )


def _build_store(path: str) -> dict[int, bytes]:
    db = DB(path, _options())
    model = {}
    for i in range(3000):
        db.put(i * 5, f"v{i}".encode())
        model[i * 5] = f"v{i}".encode()
    db.close()
    return model


def _flip(path: str, offset: int) -> None:
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


class TestRepair:
    def test_corrupt_meta_block_fails_typed_and_repairs(self, tmp_path):
        """A meta block whose ``min_key`` length overruns it: open raises a
        ``ReproError`` (not ``struct.error``), repair drops that one file,
        and the store reopens sound."""
        path = str(tmp_path / "db")
        _build_store(path)
        ssts = sorted(
            name for name in os.listdir(path) if name.endswith(".sst")
        )
        sst = os.path.join(path, ssts[0])
        # The meta block ends where the footer starts: an 8-byte entry
        # count, then min and max key (4 bytes at key_bits=32), each
        # behind a 4-byte length.
        meta_offset = os.path.getsize(sst) - _FOOTER.size - (8 + 2 * (4 + 4))
        with open(sst, "r+b") as handle:
            handle.seek(meta_offset + 8)
            handle.write(struct.pack("<I", 0xFFFF))  # min_key's length
        with pytest.raises(ReproError):
            DB(path, _options())
        outcome = repair_store(path)
        assert outcome.dropped_files == [ssts[0]]
        db = DB(path, _options())
        assert db.verify().ok
        assert db.num_live_files() == len(ssts) - 1
        db.close()

    def test_healthy_store_untouched(self, tmp_path):
        path = str(tmp_path / "db")
        model = _build_store(path)
        outcome = repair_store(path)
        assert outcome.lossless
        assert outcome.salvaged_entries == len(model)
        assert "healthy" in outcome.summary()
        # Store still opens and serves everything.
        db = DB(path, _options())
        assert db.get(0) == model[0]
        db.close()

    def test_corrupt_file_dropped_and_quarantined(self, tmp_path):
        path = str(tmp_path / "db")
        _build_store(path)
        ssts = sorted(
            name for name in os.listdir(path) if name.endswith(".sst")
        )
        victim = ssts[0]
        _flip(os.path.join(path, victim), 10)

        outcome = repair_store(path)
        assert not outcome.lossless
        assert victim in outcome.dropped_files
        assert any(victim in q for q in outcome.quarantined)
        assert os.path.exists(os.path.join(path, victim + ".quarantine"))
        assert "dropped" in outcome.summary()

        # The store opens again; surviving data is readable.
        db = DB(path, _options())
        report = db.verify()
        assert report.ok, report.summary()
        db.close()

    def test_missing_file_dropped(self, tmp_path):
        path = str(tmp_path / "db")
        _build_store(path)
        ssts = [name for name in os.listdir(path) if name.endswith(".sst")]
        os.remove(os.path.join(path, ssts[0]))
        outcome = repair_store(path)
        assert ssts[0] in outcome.dropped_files
        assert not outcome.quarantined  # nothing to rename
        db = DB(path, _options())
        db.verify()
        db.close()

    def test_corrupt_filter_block_drops_file(self, tmp_path):
        path = str(tmp_path / "db")
        _build_store(path)
        db = DB(path, _options())
        run = db.version.all_runs_newest_first()[0]
        handle = run.reader._filter_handle  # noqa: SLF001
        victim = run.name
        db.close()
        _flip(os.path.join(path, victim), handle.offset + handle.size // 2)
        outcome = repair_store(path)
        assert victim in outcome.dropped_files

    def test_no_manifest_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            repair_store(str(tmp_path / "empty"))

    def test_repair_is_idempotent(self, tmp_path):
        path = str(tmp_path / "db")
        _build_store(path)
        ssts = sorted(
            name for name in os.listdir(path) if name.endswith(".sst")
        )
        _flip(os.path.join(path, ssts[0]), 10)
        first = repair_store(path)
        second = repair_store(path)
        assert not first.lossless
        assert second.lossless  # damage already excised
        assert second.salvaged_entries == first.salvaged_entries
