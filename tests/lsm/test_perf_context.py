"""Tests for per-query performance contexts (db.last_query).

A read counts into its own ``QueryContext`` and ``DB._publish`` folds it
into ``PerfStats`` / ``WorkloadTracker`` once: ``TestReadLedger`` pins that
(publish-once, isolation from other threads' counts, and counter parity
with the per-event bookkeeping it replaced).
"""

import random
from dataclasses import fields

import pytest

from repro.bench.factories import make_factory
from repro.errors import CorruptionError
from repro.lsm.db import DB
from repro.lsm.options import DBOptions
from repro.lsm.perf_context import QueryContext
from repro.lsm.sstable import SSTReader
from repro.lsm.stats import PerfStats
from tests.lsm.test_fault_injection import _flip_byte, _path_of


@pytest.fixture
def db(tmp_path, small_db_options):
    small_db_options.filter_factory = make_factory(
        "rosetta", 32, 16, max_range=32
    )
    database = DB(str(tmp_path / "ctx"), small_db_options)
    for i in range(3000):
        database.put(i * 7, f"v{i}".encode())
    database.flush()
    yield database
    database.close()


class TestPointContext:
    def test_present_key(self, db):
        assert db.get(7) == b"v1"
        ctx = db.last_query
        assert ctx.kind == "point"
        assert ctx.low == 7
        assert ctx.results == 1
        assert ctx.runs_considered >= 1

    def test_memtable_hit_short_circuits(self, db):
        db.put(999_999, b"fresh")
        db.get(999_999)
        ctx = db.last_query
        assert ctx.memtable_hit
        assert ctx.runs_considered == 0
        assert ctx.blocks_read == 0

    def test_filtered_absent_key_reads_nothing(self, db):
        db.get(8)  # absent, inside the key span
        ctx = db.last_query
        assert ctx.results == 0
        assert ctx.filters_probed >= 1
        if ctx.filter_negatives == ctx.filters_probed:
            assert ctx.iterators_created == 0

    def test_out_of_span_key_considers_no_runs(self, db):
        db.get((1 << 32) - 1)
        assert db.last_query.runs_considered == 0


class TestRangeContext:
    def test_occupied_range(self, db):
        results = db.range_query(0, 70)
        ctx = db.last_query
        assert ctx.kind == "range"
        assert ctx.results == len(results) == 11
        assert ctx.iterators_created >= 1

    def test_filtered_empty_range_creates_no_iterators(self, db):
        db.range_query(1, 6)  # first probe may lazily load filter blocks
        db.range_query(1, 6)  # between multiples of 7, definitely empty
        ctx = db.last_query
        assert ctx.results == 0
        if ctx.filter_negatives == ctx.filters_probed and ctx.filters_probed:
            assert ctx.iterators_created == 0
            assert ctx.blocks_read == 0

    def test_context_replaced_per_query(self, db):
        db.range_query(0, 10)
        first = db.last_query
        db.get(7)
        assert db.last_query is not first
        assert db.last_query.kind == "point"

    def test_iterator_count_tracks_positive_runs(self, db):
        """§4: one child iterator per positive run (plus the memtable)."""
        db.put(50_000_000, b"live-memtable")
        db.range_query(0, 70)
        ctx = db.last_query
        positives = ctx.filters_probed - ctx.filter_negatives
        no_filter_runs = ctx.runs_considered - ctx.filters_probed
        assert ctx.iterators_created == positives + no_filter_runs + 1


# Captured at the commit before the read ledger moved into QueryContext, by
# running ``_replay`` there: every PerfStats counter except the ``*_ns``
# stopwatches, and the tracker's whole state.  ``bytes_written`` and
# ``block_read_bytes`` count the manifest too; they were lowered by 200 and
# 8 when manifest level entries became plain file names, 8 bytes shorter
# than the ``[name, null]`` pairs written before.
_GOLDEN_COUNTERS = {
    "block_reads": 109, "block_read_bytes": 77525, "block_cache_hits": 713,
    "block_cache_misses": 73, "bytes_written": 131344,
    "io_transient_errors": 0, "io_retries": 0, "filters_degraded": 1,
    "filters_quarantined": 0, "background_errors": 0, "memtable_seals": 10,
    "filter_probes": 810, "filter_batch_probes": 465, "filter_negatives": 461,
    "filter_true_positives": 311, "filter_false_positives": 38,
    "point_queries": 802, "multi_point_queries": 20, "range_queries": 212,
    "writes": 2002, "flushes": 10, "compactions": 3,
    "compaction_bytes_read": 55141, "compaction_bytes_written": 52610,
    "filters_built": 14,
}
_GOLDEN_TRACKER = {
    "false_positives": 38, "filter_negatives": 461, "filter_positives": 349,
    "point_queries": 802,
    "range_sizes": {
        2: 42, 3: 39, 4: 28, 5: 42, 15: 1, 31: 1, 47: 2, 49: 1, 82: 1, 86: 1,
        87: 2, 92: 1, 109: 1, 115: 1, 116: 1, 126: 1, 131: 1, 136: 1, 141: 1,
        147: 1, 164: 1, 183: 1, 199: 1, 211: 1, 228: 2, 231: 1, 241: 1,
        242: 1, 247: 1, 283: 1, 298: 1, 304: 1, 322: 1, 325: 1, 329: 1,
        343: 1, 371: 1, 374: 1, 375: 1, 378: 1, 396: 1, 2001: 20, 4001: 1,
    },
}


def _replay(root) -> DB:
    """A seeded single-threaded read mix over every kind of run.

    One filter-less run (ingested before the store had a filter factory),
    one degraded run (filter envelope corrupted before its first probe),
    filtered runs on two levels and a live memtable; gets, duplicate-key
    multi_gets, and empty / occupied / partially consumed / closed-early
    ranges, all inside the key domain.
    """
    rng = random.Random(19)
    options = DBOptions(
        key_bits=32,
        memtable_size_bytes=8 << 10,
        sst_size_bytes=16 << 10,
        max_bytes_for_level_base=64 << 10,
        block_size_bytes=1024,
        block_cache_bytes=32 << 10,
    )
    path = str(root / "parity")
    with DB(path, options) as bare:
        bare.ingest([(i * 11, b"bare-%d" % i) for i in range(300)], level=2)
    options.filter_factory = make_factory("rosetta", 32, 14, max_range=32)
    db = DB(path, options)
    for batch in range(5):  # interleaved, so the runs' spans overlap
        for i in range(400):
            db.put(5000 + (i * 5 + batch) * 7, b"v%d-%d" % (batch, i))
        db.flush()
    victim = db.version.all_runs_newest_first()[2]
    _flip_byte(
        _path_of(db, victim),
        victim.reader._filter_handle.offset,  # noqa: SLF001
    )
    db.put(123_456, b"buffered")
    db.delete(5007)

    keys = [5000 + i * 7 for i in range(2000)] + [i * 11 for i in range(300)]
    for _ in range(150):
        db.get(rng.choice(keys))        # present
        db.get(rng.choice(keys) + 1)    # absent, inside the runs' spans
    db.get(123_456)
    db.get(5007)
    db.get((1 << 32) - 1)
    for _ in range(20):
        batch = [rng.choice(keys) + rng.choice((0, 1)) for _ in range(24)]
        db.multi_get(batch + batch[:5] + [123_456])
    db.multi_get([])
    for _ in range(150):
        low = rng.choice(keys) + 1
        db.range_query(low, low + rng.randrange(1, 5))     # mostly empty
    for _ in range(40):
        low = rng.choice(keys)
        db.range_query(low, low + rng.randrange(10, 400))  # occupied
    for _ in range(20):
        low = rng.choice(keys)
        scan = db.range_iter(low, low + 2000)              # partially consumed
        for _ in range(rng.randrange(1, 6)):
            next(scan, None)
        scan.close()
    scan = db.range_iter(5000, 9000)                       # closed early, twice
    next(scan)
    scan.close()
    scan.close()
    assert list(db.range_iter(1, 3)) == []
    return db


def _erroring_store(root) -> tuple[DB, list[int], list[int]]:
    """A newer L0 run over an older L2 file whose first data block is
    corrupt.  Returns the store, the ``get`` keys and the ``multi_get``
    keys; every read of each raises ``CorruptionError`` in the L2 file.

    The get key sits in the corrupt block and is refuted by the newer run's
    filter first.  The multi_get asks, in order: a buffered key, a key of
    the newer run, a key of the L2 file's last (intact) block and the get
    key — so the error lands mid-group, after a memtable hit, a resolved
    run and one entry the failing run already returned.
    """
    options = DBOptions(
        key_bits=32,
        memtable_size_bytes=8 << 10,
        sst_size_bytes=16 << 10,
        max_bytes_for_level_base=64 << 10,
        block_size_bytes=1024,
        block_cache_bytes=1 << 20,
    )
    options.filter_factory = make_factory("rosetta", 32, 16, max_range=32)
    db = DB(str(root / "erroring"), options)
    db.ingest([(i * 10, b"old-%d" % i) for i in range(2000)], level=2)
    for i in range(100):
        db.put(i * 200 + 5, b"new-%d" % i)
    db.flush()
    db.put(3, b"buffered")
    newer, older = db.version.runs_for_range(
        db._encode_key(10), db._encode_key(10)  # noqa: SLF001
    )
    assert newer.level == 0 and older.level == 2
    refutes = db._filter_dictionary.get_filter(  # noqa: SLF001
        newer.reader, db.stats
    ).may_contain_batch
    first_block = [key for key in range(10, 200, 10) if not refutes([key])[0]]
    high = int.from_bytes(older.reader.meta.max_key, "big")
    last_block = [key for key in range(high, high - 100, -10)
                  if not refutes([key])[0]]
    db._filter_dictionary.get_filter(older.reader, db.stats)  # noqa: SLF001
    _flip_byte(_path_of(db, older), 10)
    return db, [first_block[0]], [3, 205, last_block[0], first_block[0]]


def _counted(db) -> dict:
    """Every ``PerfStats`` counter but the stopwatches, and the tracker's
    counts."""
    snapshot = db.stats.snapshot()
    counted = {
        f.name: getattr(snapshot, f.name)
        for f in fields(PerfStats)
        if not f.name.endswith("_ns")
    }
    tracker = db.tracker.to_dict()
    counted.update(
        (f"tracker.{name}", value)
        for name, value in tracker.items()
        if isinstance(value, int)
    )
    return counted


# Captured at the commit before a point read counted in locals: what a read
# that raises mid-run has counted.  The failing run's own verdicts never
# reach the ledgers (it gave none), its probes and block reads do.
_RAISING_READS = {
    "get": (
        {
            "block_reads": 1, "block_read_bytes": 1026,
            "block_cache_misses": 1, "filter_probes": 2,
            "filter_batch_probes": 2, "filter_negatives": 1,
            "point_queries": 1, "tracker.point_queries": 1,
            "tracker.filter_negatives": 1,
        },
        {
            "kind": "point", "low": 10, "high": 10, "runs_considered": 2,
            "filter_calls": 2, "filters_probed": 2, "filter_negatives": 1,
            "filter_true_positives": 0, "filter_false_positives": 0,
            "iterators_created": 1, "blocks_read": 1, "block_cache_hits": 0,
            "block_cache_misses": 1, "block_read_bytes": 1026, "results": 0,
            "memtable_hit": False, "width": 0, "keys_requested": 0,
            "distinct_keys": 1, "memtable_hits": 0,
        },
    ),
    "multi_get": (
        {
            "block_reads": 2, "block_read_bytes": 1986,
            "block_cache_hits": 1, "block_cache_misses": 2,
            "filter_probes": 5, "filter_batch_probes": 2,
            "filter_negatives": 2, "filter_true_positives": 1,
            "point_queries": 4, "multi_point_queries": 1,
            "tracker.point_queries": 4, "tracker.filter_positives": 1,
            "tracker.filter_negatives": 2,
        },
        {
            "kind": "multi_point", "low": 3, "high": 12770,
            "runs_considered": 2, "filter_calls": 2, "filters_probed": 5,
            "filter_negatives": 2, "filter_true_positives": 1,
            "filter_false_positives": 0, "iterators_created": 3,
            "blocks_read": 2, "block_cache_hits": 1, "block_cache_misses": 2,
            "block_read_bytes": 1986, "results": 3, "memtable_hit": True,
            "width": 0, "keys_requested": 4, "distinct_keys": 4,
            "memtable_hits": 1,
        },
    ),
    # Both runs' filters answer positive (their blocks are cached by now);
    # the newer run's first entry confirms it, the L2 file fails reading its
    # first, so it is not judged.
    "range_query": (
        {
            "block_cache_hits": 2, "filter_probes": 2,
            "filter_batch_probes": 2, "filter_true_positives": 1,
            "range_queries": 1, "tracker.filter_positives": 1,
        },
        {
            "kind": "range", "low": 0, "high": 300, "runs_considered": 2,
            "filter_calls": 2, "filters_probed": 2, "filter_negatives": 0,
            "filter_true_positives": 1, "filter_false_positives": 0,
            "iterators_created": 3, "blocks_read": 0, "block_cache_hits": 2,
            "block_cache_misses": 0, "block_read_bytes": 0, "results": 0,
            "memtable_hit": False, "width": 301, "keys_requested": 0,
            "distinct_keys": 0, "memtable_hits": 0,
        },
    ),
}


class _Recorder:
    """Wraps ``db.stats.fold`` / ``add`` / ``snapshot`` to log the calls a
    read makes."""

    def __init__(self, db, monkeypatch):
        self.folds: list = []
        self.adds: list[set[str]] = []
        self.snapshots = 0
        fold, add, snapshot = db.stats.fold, db.stats.add, db.stats.snapshot

        def recording_fold(context):
            self.folds.append(context)
            fold(context)

        def recording_add(**deltas):
            self.adds.append(set(deltas))
            add(**deltas)

        def recording_snapshot():
            self.snapshots += 1
            return snapshot()

        monkeypatch.setattr(db.stats, "fold", recording_fold)
        monkeypatch.setattr(db.stats, "add", recording_add)
        monkeypatch.setattr(db.stats, "snapshot", recording_snapshot)


class TestReadLedger:
    def test_empty_range_publishes_once(self, db, monkeypatch):
        db.range_query(1, 6)  # warm: filter blocks loaded and memoized
        recorder = _Recorder(db, monkeypatch)
        assert db.range_query(1, 6) == []
        context = db.last_query
        assert context.filters_probed == context.filter_negatives >= 1
        assert recorder.folds == [context]
        assert recorder.adds == []
        assert recorder.snapshots == 0

    def test_get_publishes_once(self, db, monkeypatch):
        db.get(7)  # warm
        recorder = _Recorder(db, monkeypatch)
        before = db.stats.block_cache_hits + db.stats.block_reads
        assert db.get(14) == b"v2"
        context = db.last_query
        assert recorder.folds == [context]
        assert recorder.adds == []  # the block it touched rode in the fold
        assert context.block_cache_hits + context.blocks_read == 1
        assert db.stats.block_cache_hits + db.stats.block_reads == before + 1
        assert recorder.snapshots == 0

    def test_interleaved_contexts_count_their_own_blocks(self, db):
        """Two queries' reads interleaved on one reader stay apart, and
        reach the shared totals only when a query publishes."""
        reader = db.version.all_runs_newest_first()[0].reader
        low, high = reader.meta.min_key, reader.meta.max_key
        first, second = QueryContext(), QueryContext()
        before = db.stats.snapshot()
        assert reader.get(low, first) is not None
        assert reader.get(low, second) is not None    # first just cached it
        assert reader.get(high, first) is not None
        assert first.blocks_read + first.block_cache_hits == 2
        assert (second.blocks_read, second.block_cache_hits) == (0, 1)
        for context in (first, second):
            assert context.block_cache_misses == context.blocks_read
            assert bool(context.block_read_bytes) == bool(context.blocks_read)
        delta = db.stats.diff(before)
        assert delta.block_reads == delta.block_cache_hits == 0

    def test_nested_read_counts_its_own_blocks(self, db, monkeypatch):
        """A read landing in the middle of another's — here from inside its
        block fetch, as a second thread's would — pollutes neither."""

        def touched(context):
            return context.blocks_read + context.block_cache_hits

        db.multi_get([7, 14])  # warm: filter blocks loaded and memoized
        db.get(7)
        alone_outer = touched(db.last_query)
        db.get(14)
        alone_nested = touched(db.last_query)
        assert alone_outer >= 1 <= alone_nested
        original = SSTReader.get
        nested = []

        def nesting(reader, key, context=None):
            if not nested:
                nested.append(None)
                assert db.get(14) == b"v2"
                nested[0] = db.last_query
            return original(reader, key, context)

        monkeypatch.setattr(SSTReader, "get", nesting)
        assert db.get(7) == b"v1"
        assert db.last_query.low == 7 and nested[0].low == 14
        assert touched(db.last_query) == alone_outer
        assert touched(nested[0]) == alone_nested

    def test_last_query_is_isolated_from_concurrent_counts(
        self, db, monkeypatch
    ):
        """Another reader's probes, landing mid-query, are not this query's."""
        for run in db.version.all_runs_newest_first():
            noisy = db._filter_dictionary.get_filter(  # noqa: SLF001
                run.reader, db.stats
            )
            for name in ("may_contain_range", "may_contain_batch"):
                original = getattr(noisy, name)

                def interrupted(*args, _original=original):
                    db.stats.add(filter_probes=1000, filter_negatives=1000)
                    return _original(*args)

                monkeypatch.setattr(noisy, name, interrupted)

        assert db.range_query(1, 6) == []
        context = db.last_query
        assert 1 <= context.filters_probed == context.runs_considered < 1000
        assert context.filter_negatives == context.filters_probed

        assert db.get(8) is None
        context = db.last_query
        assert 1 <= context.filters_probed == context.runs_considered < 1000
        assert context.filter_negatives <= context.filters_probed

    def test_a_read_that_raises_still_publishes_what_it_counted(self, tmp_path):
        db, get_keys, multi_keys = _erroring_store(tmp_path)
        try:
            assert (get_keys, multi_keys) == ([10], [3, 205, 12770, 10])
            for read, args in (
                (db.get, (get_keys[0],)),
                (db.multi_get, (multi_keys,)),
                (db.range_query, (0, 300)),
            ):
                before = _counted(db)
                with pytest.raises(CorruptionError):
                    read(*args)
                after = _counted(db)
                delta = {
                    name: after[name] - value
                    for name, value in before.items()
                    if after[name] != value
                }
                context = {
                    f.name: getattr(db.last_query, f.name)
                    for f in fields(QueryContext)
                    if not f.name.endswith("_ns")
                }
                assert (delta, context) == _RAISING_READS[read.__name__]
        finally:
            db.close()

    def test_counters_match_the_per_event_bookkeeping(self, tmp_path):
        db = _replay(tmp_path)
        try:
            snapshot = db.stats.snapshot()
            runs = db.version.all_runs_newest_first()
            assert len(db.health().degraded_filters) == 1
            assert any(not run.reader.filter_block_bytes() for run in runs)
            counters = {
                f.name: getattr(snapshot, f.name)
                for f in fields(PerfStats)
                if not f.name.endswith("_ns")
            }
            assert len(fields(PerfStats)) == 33
            assert counters == _GOLDEN_COUNTERS
            tracker = db.tracker.to_dict()
            tracker["range_sizes"] = {
                int(size): n for size, n in tracker["range_sizes"].items()
            }
            assert tracker == _GOLDEN_TRACKER
        finally:
            db.close()
