"""Block-cache behaviour under pressure, through the whole store.

The paper keeps filter/index blocks resident because a scan-heavy workload
would otherwise evict them and every query would re-fetch metadata.  Here
they are decoded onto each run's reader and never enter the cache, whose
budget holds data blocks only and keeps the ones read twice.  These tests
squeeze the cache and check that contract end to end.
"""

from repro.bench.factories import make_factory
from repro.lsm.block_cache import BlockCache
from repro.lsm.db import DB
from repro.lsm.options import DBOptions
from repro.lsm.sstable import SSTReader, read_sst_meta


def _options(cache_bytes: int) -> DBOptions:
    return DBOptions(
        key_bits=32,
        memtable_size_bytes=16 << 10,
        sst_size_bytes=64 << 10,
        block_size_bytes=1024,
        block_cache_bytes=cache_bytes,
        filter_factory=make_factory("rosetta", 32, 14, max_range=32),
    )


def _load(db: DB, n: int = 4000) -> None:
    for i in range(n):
        db.put(i * 3, bytes(24))
    db.flush()


class TestPressure:
    def test_tiny_cache_still_correct(self, tmp_path):
        db = DB(str(tmp_path / "tiny"), _options(cache_bytes=4096))
        _load(db)
        for probe in range(0, 12000, 601):
            expected = bytes(24) if probe % 3 == 0 else None
            assert db.get(probe) == expected
        db.close()

    def test_point_read_after_scan_churn_reads_one_data_block(self, tmp_path):
        db = DB(str(tmp_path / "churn"), _options(cache_bytes=16 << 10))
        _load(db)
        db.get(3)  # resolve the filters
        # Churn data blocks far larger than the cache.
        for _ in range(3):
            list(db.iterator())
        # Index and filter live decoded on the readers, so a fresh point
        # query reads at most its one data block from the device.
        before = db.stats.snapshot()
        db.get(9)
        delta = db.stats.diff(before)
        assert delta.block_reads <= 1
        db.close()

    def test_block_read_twice_survives_a_full_scan(self, tmp_path):
        cache_bytes = 16 << 10
        db = DB(str(tmp_path / "twice"), _options(cache_bytes=cache_bytes))
        _load(db, n=8000)
        data_bytes = sum(run.file_size for run in db.version.all_runs_newest_first())
        assert data_bytes > 4 * cache_bytes
        db.get(3)  # miss: probation
        db.get(3)  # hit: protected
        list(db.iterator())  # every block read once
        before = db.stats.snapshot()
        assert db.get(3) == bytes(24)
        delta = db.stats.diff(before)
        assert (delta.block_reads, delta.block_cache_hits) == (0, 1)
        db.close()

    def test_open_and_filter_resolution_leave_the_cache_empty(self, tmp_path):
        path = str(tmp_path / "meta")
        db = DB(path, _options(cache_bytes=1 << 20))
        _load(db)
        db.close()
        db = DB(path, _options(cache_bytes=1 << 20))
        before = db.stats.snapshot()
        for run in db.version.all_runs_newest_first():
            assert db._filter_dictionary.get_filter(run.reader, db.stats)  # noqa: SLF001
        delta = db.stats.diff(before)
        assert delta.block_reads == len(db.version.all_runs_newest_first())  # one filter each
        assert delta.block_cache_hits == delta.block_cache_misses == 0
        assert len(db._cache) == 0  # noqa: SLF001
        db.close()

    def test_cache_holds_only_data_blocks_within_its_budget(self, tmp_path):
        db = DB(str(tmp_path / "budget"), _options(cache_bytes=8 << 10))
        cache = db._cache  # noqa: SLF001
        data_offsets: dict[str, set[int]] = {}
        put = cache.put

        def checked_put(key, block):
            name, offset = key
            if name not in data_offsets:
                reader = SSTReader(
                    db._env, read_sst_meta(db._env, name), BlockCache(0)  # noqa: SLF001
                )
                data_offsets[name] = {
                    handle.offset for _, handle in reader._fence_pointers  # noqa: SLF001
                }
            assert offset in data_offsets[name], key
            put(key, block)

        cache.put = checked_put
        for i in range(3000):
            db.put(i * 3, bytes(24))
            if i % 50 == 0:
                db.get(i * 3 // 2)
                db.range_query(i, i + 40)
            assert cache.used_bytes <= cache.capacity_bytes
        db.flush()
        for low in range(0, 9000, 450):
            assert len(db.range_query(low, low + 30)) == 11
            db.get(low)
            assert cache.used_bytes <= cache.capacity_bytes
        list(db.iterator())
        assert cache.used_bytes <= cache.capacity_bytes
        assert data_offsets  # the check saw the blocks go in
        db.close()

    def test_disabled_cache_counts_every_read(self, tmp_path):
        db = DB(str(tmp_path / "none"), _options(cache_bytes=0))
        _load(db, n=1000)
        db.get(3)
        db.get(3)
        assert db.stats.block_cache_hits == 0
        assert db.stats.block_reads >= 2
        db.close()
