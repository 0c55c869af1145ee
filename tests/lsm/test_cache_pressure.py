"""Block-cache behaviour under pressure, through the whole store.

The paper pins filter/index blocks precisely because a scan-heavy workload
would otherwise evict them and every query would re-fetch metadata.  These
tests squeeze the cache and check the priority machinery end to end.
"""

import pytest

from repro.bench.factories import make_factory
from repro.lsm.db import DB
from repro.lsm.options import DBOptions


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

    def test_scan_churn_does_not_evict_pinned_metadata(self, tmp_path):
        db = DB(str(tmp_path / "pin"), _options(cache_bytes=16 << 10))
        _load(db)
        # Warm the metadata (filters/index pinned for L0, high-prio else).
        db.get(3)
        # Churn data blocks far larger than the cache.
        for _ in range(3):
            list(db.iterator())
        # Metadata reads for a fresh point query should still hit cache
        # (the filter dictionary plus pinned/high-priority index blocks).
        before = db.stats.snapshot()
        db.get(9)
        delta = db.stats.diff(before)
        # At most the one data block comes from the device.
        assert delta.block_reads <= 1
        db.close()

    def test_priority_beats_lru_order(self, tmp_path):
        """Data blocks churned *after* metadata still evict first."""
        db = DB(str(tmp_path / "prio"), _options(cache_bytes=8 << 10))
        _load(db, n=2000)
        db.get(3)  # loads metadata + one data block
        cache = db._cache  # noqa: SLF001
        high_and_pinned = len(cache._high) + len(cache._pinned)  # noqa: SLF001
        assert high_and_pinned > 0
        for _ in range(2):
            list(db.iterator())  # flood with data blocks
        assert len(cache._high) + len(cache._pinned) >= high_and_pinned  # noqa: SLF001
        db.close()

    def test_disabled_cache_counts_every_read(self, tmp_path):
        db = DB(str(tmp_path / "none"), _options(cache_bytes=0))
        _load(db, n=1000)
        db.get(3)
        db.get(3)
        assert db.stats.block_cache_hits == 0
        assert db.stats.block_reads >= 2
        db.close()
