"""Counted, not timed: the calls one ``put``, one ``get`` and one range read
make.

cProfile counts every Python and builtin call (a generator's every resume
too), so the numbers repeat exactly on one interpreter and a ceiling catches
a read or write path that grew a step.  The store is fixed: 32-bit keys, two
L0 files over two L1 and four L2 files, every filter and block warm.  The
ceilings hold the one-pass point read over a dict memtable that takes the
superversion with one attribute read, seeking with one bisect of the key
index the block cache built when it promoted the block (65.6 calls per get;
79.7 while every hit re-verified its block's CRC32 and restart array and
walked a restart interval; 83.7 while every read pinned and unpinned the
superversion under a lock; the skip-list memtable and the per-run list
building it replaced cost 101.7) and the put of an inline-only store: 42.0 calls (41.0 before ``DB.put``
became one call into the writer), down from 48.0 when
each put also checked the write-stall triggers (``_apply_backpressure``,
``_stall_conditions``, two ``len`` and a ``max``) and its WAL append and
sync each fired a scheduler yield hook (59.1 with the skip list).

The range ceilings hold the range read that does only what its answer needs
(one filter walk over every run, no scan built for an empty answer, a block
cursor that seeks, no superversion pin): 137.8 calls per empty
``range_query`` (224.4 before; 141.8 with the pin), 1900.6 per 16-record
``range_query`` (1833.5 before: the memo of parsed blocks it dropped
answered these warm repeats without parsing; the range's filter probes take
the frontier engine, most of the count), 1684.1 per ``range_iter`` read to
its first entry and closed (1627.9) and 424.9 per 16-record ``iterator``
(352.7).

The batch ceiling holds ``multi_get``'s one pass per run: a 1 000-key,
mostly-absent ``multi_get`` costs 7.0 calls per key against 63.7 per
``get`` of the same keys (13.5 and 70.1 before blocks were key-indexed), its per-run groups (490 keys on average) on the
vector side of ``SCALAR_PROBE_MAX``.  It must stay under a third of the
``get`` loop's.

The serving pin is exact: what shedding, a deadline and the breaker add
to a happy-path ``ShardedServer.put`` (4 calls: a closed breaker reads
the DB's background error, taking no shard lock) and
``get_async(...).result()`` (1: the deadline's clock read).  The serving
ceilings hold the tax of a combiner that runs each queued piece as its own
DB read: 114.0 calls per served ``get``, 23.5 per key of a served 32-key
``multi_get`` and 172.7 per served empty range (134.0, 24.8 and 186.7
while a batch merged its point pieces into one ``multi_get`` under
per-batch caps and counters).
"""

import cProfile
import pstats
import random

from repro.bench.factories import make_factory
from repro.core.bloom import SCALAR_PROBE_MAX
from repro.lsm import DB, DBOptions
from repro.lsm.serving import ServingOptions, ShardedServer

PUT_CEILING = 43
GET_CEILING = 69
EMPTY_RANGE_CEILING = 151
RANGE_CEILING = 1986
RANGE_ITER_CEILING = 1766
ITERATOR_CEILING = 446
MULTI_GET_KEY_CEILING = 8
SERVED_GET_CEILING = 120
SERVED_MULTI_GET_KEY_CEILING = 24.5
SERVED_EMPTY_RANGE_CEILING = 180
DEFENCE_PUT_CALLS = 4.0
DEFENCE_GET_CALLS = 1.0


def _calls_per_op(calls, arguments) -> float:
    profile = cProfile.Profile()
    profile.enable()
    for argument in arguments:
        calls(*argument)
    profile.disable()
    return pstats.Stats(profile).total_calls / len(arguments)


def _eight_file_store(path) -> tuple[DB, list[int], random.Random]:
    """Two L0 files over two L1 and four L2 files; returns the store, the
    keys in insertion order (the last 1000 not yet written) and the RNG."""
    rng = random.Random("op-call-counts")
    keys = rng.sample(range(1 << 32), 2550)
    options = DBOptions(
        key_bits=32,
        sst_size_bytes=16 << 10,
        block_size_bytes=1 << 10,
        memtable_size_bytes=1 << 20,  # the profiled puts stay below one seal
        max_bytes_for_level_base=64 << 10,
    )
    options.filter_factory = make_factory("rosetta", 32, 22, max_range=64)
    db = DB(str(path), options)
    db.ingest([(key, rng.randbytes(64)) for key in keys[:900]], level=2)
    db.ingest([(key, rng.randbytes(64)) for key in keys[900:1350]], level=1)
    for start in (1350, 1450):
        for key in keys[start:start + 100]:
            db.put(key, rng.randbytes(64))
        db.flush()
    version = db.version
    shape = (len(version.level0), len(version.level_runs(1)),
             len(version.level_runs(2)))
    assert shape == (2, 2, 4)
    return db, keys, rng


def test_calls_per_put_and_per_get(tmp_path):
    db, keys, rng = _eight_file_store(tmp_path / "store")
    with db:
        stored = set(keys)
        absent = [key for key in rng.sample(range(1 << 32), 1100)
                  if key not in stored][:1000]
        reads = [(key,) for key in rng.sample(keys[:1550], 1000) + absent]
        rng.shuffle(reads)
        for (key,) in reads:  # warm: filters deserialized, blocks cached
            db.get(key)
        per_get = _calls_per_op(db.get, reads)

        seals = db.stats.snapshot().memtable_seals
        writes = [(key, rng.randbytes(64)) for key in keys[1550:]]
        per_put = _calls_per_op(db.put, writes)
        assert db.stats.snapshot().memtable_seals == seals

    assert per_put <= PUT_CEILING, per_put
    assert per_get <= GET_CEILING, per_get


def _first_then_close(db: DB, low: int, high: int) -> None:
    scan = db.range_iter(low, high)
    next(scan)
    scan.close()


def test_calls_per_range_read(tmp_path):
    db, keys, rng = _eight_file_store(tmp_path / "store")
    with db:
        stored = sorted(keys[:1550])
        gaps = [
            (low + 1, min(high - 1, low + rng.randrange(1, 65)))
            for low, high in zip(stored, stored[1:])
            if high - low > 2
        ]
        empty = rng.sample(gaps, 1000)
        starts = [rng.randrange(len(stored) - 16) for _ in range(300)]
        scans = [(stored[i], stored[i + 15]) for i in starts]
        # Warm, and check the shapes.
        assert not any(db.range_query(low, high) for low, high in empty)
        assert all(len(db.range_query(low, high)) == 16 for low, high in scans)
        per_empty = _calls_per_op(db.range_query, empty)
        per_scan = _calls_per_op(db.range_query, scans)
        per_first = _calls_per_op(
            lambda low, high: _first_then_close(db, low, high), scans
        )
        per_iterator = _calls_per_op(
            lambda low, high: list(db.iterator(low, high)), scans
        )

    assert per_empty <= EMPTY_RANGE_CEILING, per_empty
    assert per_scan <= RANGE_CEILING, per_scan
    assert per_first <= RANGE_ITER_CEILING, per_first
    assert per_iterator <= ITERATOR_CEILING, per_iterator


def test_calls_per_multi_get_key(tmp_path):
    db, keys, rng = _eight_file_store(tmp_path / "store")
    with db:
        stored = set(keys)
        absent = [key for key in rng.sample(range(1 << 32), 1000)
                  if key not in stored][:900]
        batch = absent + rng.sample(keys[:1550], 100)
        rng.shuffle(batch)
        gets = {key: db.get(key) for key in batch}  # warm
        before = db.stats.snapshot()
        assert db.multi_get(batch) == gets
        probed = db.stats.diff(before)
        assert probed.filter_probes / probed.filter_batch_probes > SCALAR_PROBE_MAX
        per_get = _calls_per_op(db.get, [(key,) for key in batch])
        per_key = _calls_per_op(db.multi_get, [(batch,)]) / len(batch)

    assert per_key <= MULTI_GET_KEY_CEILING, per_key
    assert 3 * per_key <= per_get, (per_key, per_get)


def _serving_calls(path, defended: bool) -> dict[str, float]:
    """Calls per put, per warm get, per key of a warm 32-key ``multi_get``
    and per warm empty range on a two-shard server, with every defence on
    or every one off."""
    rng = random.Random("serving-defences")
    keys = rng.sample(range(1 << 32), 2000)
    deadline_s = 0.5 if defended else None
    serving = ServingOptions(
        num_shards=2,
        queue_policy="shed" if defended else "block",
        breaker_enabled=defended,
    )
    options = DBOptions(key_bits=32, memtable_size_bytes=1 << 20)
    with ShardedServer(str(path), options, serving) as server:
        for key in keys[:1000]:
            server.put(key, rng.randbytes(64))
        server.flush()
        reads = [(key,) for key in keys[:1000]]

        def get(key):
            return server.get_async(key, deadline_s=deadline_s).result()

        def multi_get(keys):
            return server.multi_get_async(keys, deadline_s=deadline_s).result()

        def range_query(low, high):
            return server.range_query_async(
                low, high, deadline_s=deadline_s
            ).result()

        groups = [(rng.sample(keys, 32),) for _ in range(100)]
        stored = sorted(keys[:1000])
        empty = [
            (low + 1, min(high - 1, low + rng.randrange(1, 65)))
            for low, high in zip(stored, stored[1:])
        ]
        for (key,) in reads:  # warm
            get(key)
        for (group,) in groups:
            multi_get(group)
        assert not any(range_query(low, high) for low, high in empty)
        calls = {
            "get": _calls_per_op(get, reads),
            "multi_get_key": _calls_per_op(multi_get, groups) / 32,
            "empty_range": _calls_per_op(range_query, empty),
        }
        writes = [(key, rng.randbytes(64)) for key in keys[1000:]]
        calls["put"] = _calls_per_op(server.put, writes)
        return calls


def test_calls_the_serving_defences_add(tmp_path):
    defended = _serving_calls(tmp_path / "defended", True)
    bare = _serving_calls(tmp_path / "undefended", False)
    added = tuple(
        round(defended[op] - bare[op], 6) for op in ("put", "get")
    )
    assert added == (DEFENCE_PUT_CALLS, DEFENCE_GET_CALLS), defended


def test_calls_per_served_read(tmp_path):
    calls = _serving_calls(tmp_path, False)
    assert calls["get"] <= SERVED_GET_CEILING, calls
    assert calls["multi_get_key"] <= SERVED_MULTI_GET_KEY_CEILING, calls
    assert calls["empty_range"] <= SERVED_EMPTY_RANGE_CEILING, calls
