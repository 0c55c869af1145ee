"""Tests for the manifest: entry shape, legacy entries, and the level
invariant a store must satisfy to open."""

import json
import os

import pytest

from repro.errors import StoreError
from repro.lsm.db import DB
from repro.lsm.options import DBOptions
from repro.lsm.repair import repair_store
from repro.lsm.version import MANIFEST


def _options() -> DBOptions:
    return DBOptions(
        key_bits=32,
        memtable_size_bytes=4 << 10,
        sst_size_bytes=8 << 10,
        block_size_bytes=1024,
    )


def _read(path: str) -> dict:
    with open(os.path.join(path, MANIFEST)) as handle:
        return json.load(handle)


def _write(path: str, manifest: dict) -> None:
    with open(os.path.join(path, MANIFEST), "w") as handle:
        json.dump(manifest, handle)


def _answers(path: str) -> tuple:
    with DB(path, _options()) as db:
        return db.range_query(0, 1 << 20), [db.get(key) for key in range(0, 5000, 7)]


def _compacted_store(path: str) -> None:
    with DB(path, _options()) as db:
        for i in range(3000):
            db.put(i * 5 % 4999, f"v{i}".encode())
    assert any(_read(path)["levels"].values())  # levels >= 1 are populated


class TestManifest:
    def test_level_entries_are_plain_file_names(self, tmp_path):
        path = str(tmp_path / "db")
        _compacted_store(path)
        for entries in _read(path)["levels"].values():
            assert all(isinstance(entry, str) for entry in entries)

    def test_legacy_pair_entries_still_open_and_repair(self, tmp_path):
        path = str(tmp_path / "db")
        _compacted_store(path)
        expected = _answers(path)
        manifest = _read(path)
        files = manifest["level0"] + [
            name for entries in manifest["levels"].values() for name in entries
        ]
        # Stores written before every level held one run wrote each level
        # entry as a ``[name, group]`` pair (``None`` on a leveled store).
        manifest["levels"] = {
            level: [[name, None] for name in entries]
            for level, entries in manifest["levels"].items()
        }
        _write(path, manifest)
        assert _answers(path) == expected

        _write(path, manifest)  # closing the store rewrote it
        outcome = repair_store(path)
        assert outcome.dropped_files == []
        assert sorted(outcome.healthy_files) == sorted(files)
        assert _answers(path) == expected

    def test_overlapping_level_files_are_refused(self, tmp_path):
        path = str(tmp_path / "db")
        with DB(path, _options()) as db:
            db.ingest(((key, b"x") for key in range(0, 4000, 2)), level=1)
            for key in range(1, 4000, 40):
                db.put(key, b"y")
            db.flush()
        manifest = _read(path)
        assert len(manifest["levels"]["1"]) >= 2 and len(manifest["level0"]) == 1
        # Move the flushed L0 file, whose span crosses L1's, into L1.
        manifest["levels"]["1"] += manifest.pop("level0")
        _write(path, manifest)
        with pytest.raises(StoreError, match="overlap"):
            DB(path, _options())
