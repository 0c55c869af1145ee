"""``DB.range_iter`` streaming contract.

Pins the three halves of the lazy-iterator fix:

* **streams** — the first entry comes off the merge before the rest of
  the range has been read (block-read counters prove it);
* **eager validation** — a closed store or inverted range raises at call
  time, not on the first ``next()``, because ``range_iter`` is a plain
  wrapper around the generator;
* **pinning** — the superversion referenced at call time stays pinned
  for the iterator's lifetime and is released exactly once on
  exhaustion, ``close()``, or garbage collection — advanced or not —
  with filter outcomes and ``last_query`` published for what was
  actually consumed.
"""

from __future__ import annotations

import gc

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


def _sv_refs(database: DB) -> int:
    return database._super.refs  # noqa: SLF001 - pinning is the contract


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

    def test_empty_span_short_circuits(self, db):
        # A range between two resident keys: every filter answers
        # negative, so there is nothing to stream and no pin to hold.
        refs_before = _sv_refs(db)
        result = list(db.range_iter(1, 7))
        assert result == []
        assert _sv_refs(db) == refs_before
        assert db.last_query.kind == "range"
        assert db.last_query.results == 0


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

    def test_validation_failure_leaves_no_pin(self, db):
        refs_before = _sv_refs(db)
        with pytest.raises(FilterQueryError):
            db.range_iter(10, 9)
        assert _sv_refs(db) == refs_before


class TestSuperversionPinning:
    def test_pin_held_while_iterating_released_on_close(self, db):
        refs_before = _sv_refs(db)
        iterator = db.range_iter(0, DOMAIN - 1)
        next(iterator)
        assert _sv_refs(db) == refs_before + 1
        iterator.close()
        assert _sv_refs(db) == refs_before

    def test_pin_released_on_exhaustion(self, db):
        refs_before = _sv_refs(db)
        iterator = db.range_iter(0, 2000)
        list(iterator)
        assert _sv_refs(db) == refs_before

    def test_pin_released_on_garbage_collection(self, db):
        refs_before = _sv_refs(db)
        iterator = db.range_iter(0, DOMAIN - 1)
        next(iterator)
        del iterator
        gc.collect()
        assert _sv_refs(db) == refs_before

    @pytest.mark.parametrize("how", ["close", "collect"])
    def test_never_advanced_iterator_unpins_and_publishes(self, db, how):
        """No ``next()`` at all: the probes it made still count, once."""
        db.get(0)
        refs_before = _sv_refs(db)
        before = db.stats.snapshot()
        iterator = db.range_iter(0, DOMAIN - 1)
        assert _sv_refs(db) == refs_before + 1
        if how == "close":
            iterator.close()
            iterator.close()
        else:
            del iterator
            gc.collect()
        assert _sv_refs(db) == refs_before
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
        """The pinned superversion keeps mid-scan results consistent."""
        iterator = db.range_iter(0, DOMAIN - 1)
        head = [next(iterator) for _ in range(3)]
        # Overwrite a key the iterator has not reached yet, then flush:
        # the pinned view must keep serving the old value.
        db.put(4096, b"overwritten")
        db.flush()
        scanned = dict(head + list(iterator))
        assert scanned[4096] == b"lazy-4096"
        assert db.get(4096) == b"overwritten"
