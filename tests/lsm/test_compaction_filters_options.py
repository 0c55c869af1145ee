"""Unit tests for compaction machinery, filter dictionary, options, stats."""

import pytest

from repro.bench.factories import make_factory
from repro.errors import InvalidOptionsError
from repro.lsm.db import DB
from repro.lsm.filter_integration import FilterDictionary
from repro.lsm.options import DBOptions
from repro.lsm.sstable import UNRESOLVED
from repro.lsm.stats import PerfStats, Stopwatch
from repro.lsm.version import LEVEL_SIZE_RATIO, level_target_bytes


class TestOptions:
    def test_defaults_validate(self):
        DBOptions().validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("key_bits", 0),
            ("key_bits", 1000),
            ("memtable_size_bytes", 10),
            ("sst_size_bytes", 100),
            ("block_size_bytes", 10),
            ("level0_file_num_compaction_trigger", 0),
            ("max_bytes_for_level_base", 0),
            ("block_cache_bytes", -1),
        ],
    )
    def test_invalid_rejected(self, field, value):
        options = DBOptions()
        setattr(options, field, value)
        with pytest.raises(InvalidOptionsError):
            options.validate()

    def test_invalid_options_create_no_store_directory(self, tmp_path):
        path = tmp_path / "never"
        with pytest.raises(InvalidOptionsError):
            DB(str(path), DBOptions(block_cache_bytes=-1))
        assert not path.exists()

    def test_level_targets_grow_by_ratio(self):
        assert LEVEL_SIZE_RATIO == 10
        assert level_target_bytes(1000, 1) == 1000
        assert level_target_bytes(1000, 2) == 10_000
        assert level_target_bytes(1000, 3) == 100_000
        with pytest.raises(ValueError):
            level_target_bytes(1000, 0)

    def test_key_width(self):
        assert DBOptions(key_bits=64).key_width_bytes == 8
        assert DBOptions(key_bits=20).key_width_bytes == 3


class TestStats:
    def test_snapshot_and_diff(self):
        stats = PerfStats()
        stats.block_reads = 5
        snap = stats.snapshot()
        stats.block_reads = 9
        assert stats.diff(snap).block_reads == 4
        assert snap.block_reads == 5  # snapshot unaffected

    def test_stopwatch_accumulates(self):
        stats = PerfStats()
        with Stopwatch(stats, "filter_probe_ns"):
            pass
        first = stats.filter_probe_ns
        with Stopwatch(stats, "filter_probe_ns"):
            pass
        assert stats.filter_probe_ns >= first

    def test_observed_fpr(self):
        stats = PerfStats()
        assert stats.observed_fpr == 0.0
        stats.filter_negatives = 90
        stats.filter_false_positives = 10
        assert stats.observed_fpr == pytest.approx(0.1)

    def test_compaction_overhead_metric(self):
        stats = PerfStats()
        assert stats.compaction_overhead_us_per_byte() == 0.0
        stats.compaction_bytes_read = 500
        stats.compaction_bytes_written = 500
        stats.compaction_time_ns = 2_000_000  # 2 ms over 1000 bytes
        assert stats.compaction_overhead_us_per_byte() == pytest.approx(2.0)


class TestFilterDictionary:
    def _db_with_filter(self, tmp_path, enabled: bool) -> DB:
        options = DBOptions(
            key_bits=32,
            memtable_size_bytes=8 << 10,
            sst_size_bytes=32 << 10,
            block_size_bytes=1024,
            use_filter_dictionary=enabled,
            filter_factory=make_factory("bloom", 32, 10),
        )
        db = DB(str(tmp_path / f"dict-{enabled}"), options)
        for i in range(500):
            db.put(i * 17, bytes(8))
        db.flush()
        return db

    def test_dictionary_deserializes_once(self, tmp_path):
        db = self._db_with_filter(tmp_path, enabled=True)
        # Absent keys *inside* the run's key span, so fences cannot prune
        # and the filter is actually consulted.
        for _ in range(20):
            db.get(18)
        first = db.stats.deserialize_ns
        assert first > 0
        for _ in range(20):
            db.get(35)
        assert db.stats.deserialize_ns == first  # cached, no new work
        db.close()

    def test_disabled_dictionary_deserializes_every_query(self, tmp_path):
        db = self._db_with_filter(tmp_path, enabled=False)
        db.get(18)
        first = db.stats.deserialize_ns
        assert first > 0
        db.get(35)
        assert db.stats.deserialize_ns > first
        db.close()

    def test_drop_run(self):
        dictionary = FilterDictionary()
        dictionary.degraded.add("x.sst")
        dictionary.under_attack.add("x.sst")
        dictionary.drop_run("x.sst")
        assert dictionary.degraded_snapshot() == ()
        assert dictionary.under_attack_snapshot() == ()
        dictionary.drop_run("x.sst")  # idempotent


class TestCompactionFilters:
    def test_compaction_rebuilds_filters(self, tmp_path):
        options = DBOptions(
            key_bits=32,
            memtable_size_bytes=4 << 10,
            sst_size_bytes=16 << 10,
            max_bytes_for_level_base=32 << 10,
            block_size_bytes=1024,
            filter_factory=make_factory("rosetta", 32, 16, max_range=32),
        )
        db = DB(str(tmp_path / "rebuild"), options)
        for i in range(4000):
            db.put(i, bytes(16))
        built_before = db.stats.filters_built
        db.force_full_compaction()
        assert db.stats.filters_built > built_before
        # Old filters went with their runs' readers; a rebuilt run resolves
        # its own on first touch.
        live = [run for runs in db.version.levels.values() for run in runs]
        assert all(run.reader.resolved_filter is UNRESOLVED for run in live)
        db.get(1)
        assert any(run.reader.resolved_filter is not UNRESOLVED for run in live)
        db.close()

    def test_compaction_bytes_accounting(self, tmp_path):
        options = DBOptions(
            key_bits=32,
            memtable_size_bytes=4 << 10,
            sst_size_bytes=16 << 10,
            block_size_bytes=1024,
        )
        db = DB(str(tmp_path / "bytes"), options)
        for i in range(3000):
            db.put(i, bytes(16))
        db.force_full_compaction()
        assert db.stats.compaction_bytes_read > 0
        assert db.stats.compaction_bytes_written > 0
        assert db.stats.compaction_time_ns > 0
        assert db.stats.compaction_overhead_us_per_byte() > 0
        db.close()
