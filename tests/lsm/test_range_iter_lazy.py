"""``DB.range_iter`` streaming contract.

Pins the three halves of the lazy-iterator fix:

* **streams** — the first entry comes off the merge before the rest of
  the range has been read (block-read counters prove it);
* **eager validation** — a closed store or inverted range raises at call
  time, not on the first ``next()``, because ``range_iter`` is a plain
  wrapper around the generator;
* **pinning** — the iterator's references pin the runs it reads: they
  stay readable, and their files on disk, for as long as it lives, even
  across a compaction that replaces them; once it ends — on exhaustion,
  ``close()``, or garbage collection, advanced or not — the writer deletes
  them at its next ``flush()`` or ``close()``, with filter outcomes and
  ``last_query`` published for what was actually consumed.
"""

from __future__ import annotations

import gc
import os

import pytest

from repro.bench.factories import make_factory
from repro.errors import ClosedStoreError, FilterQueryError
from repro.lsm.db import DB
from repro.lsm.options import DBOptions

KEY_BITS = 16
DOMAIN = 1 << KEY_BITS


@pytest.fixture
def db(tmp_path):
    database = DB(
        str(tmp_path / "db"),
        DBOptions(
            key_bits=KEY_BITS,
            memtable_size_bytes=4 << 10,
            sst_size_bytes=8 << 10,
            block_size_bytes=512,
            block_cache_bytes=0,  # force block reads so laziness is visible
            max_bytes_for_level_base=32 << 10,
            filter_factory=make_factory(
                "rosetta", KEY_BITS, 14, max_range=64
            ),
        ),
    )
    for key in range(0, DOMAIN, 8):  # 8192 keys across many blocks/SSTs
        database.put(key, b"lazy-%d" % key)
    database.flush()
    yield database
    database.close()


def _sst_files(root) -> set[str]:
    return {name for name in os.listdir(root) if name.endswith(".sst")}


def _live_files(database: DB) -> set[str]:
    return {run.name for run in database.version.all_runs_newest_first()}


class TestStreaming:
    def test_first_result_before_full_scan(self, db):
        low, high = 0, DOMAIN - 1
        baseline = db.stats.snapshot()
        iterator = db.range_iter(low, high)
        assert next(iterator) == (0, b"lazy-0")
        iterator.close()  # publishes: a scan's blocks are its context's
        after_first = db.last_query.blocks_read
        assert len(list(db.range_iter(low, high))) == DOMAIN // 8
        after_all = db.last_query.blocks_read
        # Streaming: the first next() paid for a prefix of the range, not
        # the whole thing.
        assert 0 < after_first < after_all / 4
        assert db.stats.diff(baseline).block_reads == after_first + after_all

    def test_iterator_matches_range_query(self, db):
        low, high = 1000, 9000
        assert list(db.range_iter(low, high)) == db.range_query(low, high)

    def test_partial_consumption_records_context(self, db):
        iterator = db.range_iter(0, DOMAIN - 1)
        consumed = [next(iterator) for _ in range(5)]
        iterator.close()
        context = db.last_query
        assert context.kind == "range"
        assert context.results == len(consumed) == 5

    def test_empty_span_short_circuits(self, db, tmp_path):
        # A range between two resident keys: every filter answers
        # negative, so there is nothing to stream and no run to hold.
        iterator = db.range_iter(1, 7)
        assert db.last_query.kind == "range"
        assert db.last_query.results == 0
        db.force_full_compaction()
        assert _sst_files(tmp_path / "db") == _live_files(db)
        assert list(iterator) == []


class TestEagerValidation:
    def test_inverted_range_raises_at_call_time(self, db):
        with pytest.raises(FilterQueryError):
            db.range_iter(10, 9)  # no next() involved

    def test_closed_store_raises_at_call_time(self, tmp_path):
        database = DB(
            str(tmp_path / "closed"), DBOptions(key_bits=KEY_BITS)
        )
        database.close()
        with pytest.raises(ClosedStoreError):
            database.range_iter(0, 10)

    def test_validation_failure_leaves_no_pin(self, db, tmp_path):
        with pytest.raises(FilterQueryError):
            db.range_iter(10, 9)
        db.force_full_compaction()
        assert _sst_files(tmp_path / "db") == _live_files(db)


class TestSuperversionPinning:
    """A replaced run's file outlives the last iterator that reads it, and
    no longer."""

    def test_iterator_reads_every_entry_across_full_compaction(self, db):
        iterator = db.range_iter(0, DOMAIN - 1)
        head = next(iterator)
        db.force_full_compaction()
        assert [head, *iterator] == [
            (key, b"lazy-%d" % key) for key in range(0, DOMAIN, 8)
        ]

    def test_pin_held_while_iterating_released_on_close(self, db, tmp_path):
        inputs = _live_files(db)
        iterator = db.range_iter(0, DOMAIN - 1)
        next(iterator)
        db.force_full_compaction()
        db.flush()
        assert inputs.isdisjoint(_live_files(db))
        assert _sst_files(tmp_path / "db") == inputs | _live_files(db)
        iterator.close()
        # A reader never deletes a file: the writer does, at its next call.
        assert inputs <= _sst_files(tmp_path / "db")
        db.flush()
        assert _sst_files(tmp_path / "db") == _live_files(db)

    def test_pin_released_on_exhaustion(self, db, tmp_path):
        iterator = db.range_iter(0, 2000)
        next(iterator)
        db.force_full_compaction()
        list(iterator)
        db.flush()
        assert _sst_files(tmp_path / "db") == _live_files(db)

    def test_pin_released_on_garbage_collection(self, db, tmp_path):
        iterator = db.range_iter(0, DOMAIN - 1)
        next(iterator)
        db.force_full_compaction()
        live = _live_files(db)
        del iterator
        gc.collect()
        db.close()
        assert _sst_files(tmp_path / "db") == live

    def test_held_run_keeps_its_file(self, db, tmp_path):
        run = db.version.all_runs_newest_first()[0]
        db.force_full_compaction()
        db.flush()
        assert run.name in _sst_files(tmp_path / "db")
        assert run.name not in _live_files(db)
        name = run.name
        del run
        db.flush()
        assert name not in _sst_files(tmp_path / "db")
        assert _sst_files(tmp_path / "db") == _live_files(db)

    @pytest.mark.parametrize("how", ["close", "collect"])
    def test_never_advanced_iterator_unpins_and_publishes(self, db, tmp_path, how):
        """No ``next()`` at all: the probes it made still count, once, and
        the runs it held go at the next flush."""
        db.get(0)
        before = db.stats.snapshot()
        iterator = db.range_iter(0, DOMAIN - 1)
        db.force_full_compaction()
        if how == "close":
            iterator.close()
            iterator.close()
        else:
            del iterator
            gc.collect()
        db.flush()
        assert _sst_files(tmp_path / "db") == _live_files(db)
        context = db.last_query
        assert context.kind == "range"
        assert context.results == context.iterators_created == 0
        assert context.filters_probed >= 1
        delta = db.stats.diff(before)
        assert delta.range_queries == 1
        assert delta.filter_probes == context.filters_probed
        # Nothing was read, so the positives are neither true nor false.
        assert delta.filter_true_positives == 0
        assert delta.filter_false_positives == 0

    def test_scan_stable_across_concurrent_flush(self, db):
        """The superversion a scan took keeps mid-scan results consistent."""
        iterator = db.range_iter(0, DOMAIN - 1)
        head = [next(iterator) for _ in range(3)]
        # Overwrite a key the iterator has not reached yet, then flush:
        # the view it took must keep serving the old value.
        db.put(4096, b"overwritten")
        db.flush()
        scanned = dict(head + list(iterator))
        assert scanned[4096] == b"lazy-4096"
        assert db.get(4096) == b"overwritten"
