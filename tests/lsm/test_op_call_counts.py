"""Counted, not timed: the calls one ``put`` and one ``get`` make.

cProfile counts every Python and builtin call, so the numbers repeat exactly
on one interpreter and a ceiling catches a read or write path that grew a
step.  The store is fixed: 32-bit keys, two L0 files over two L1 and four L2
files, every filter and block warm.  The ceilings hold the one-pass point
read over a dict memtable (48.0 calls per put, 83.0 per get); the skip-list
memtable and the per-run list building it replaced cost 59.1 and 101.7.
"""

import cProfile
import pstats
import random

from repro.bench.factories import make_factory
from repro.lsm import DB, DBOptions

PUT_CEILING = 50
GET_CEILING = 87


def _calls_per_op(calls, arguments) -> float:
    profile = cProfile.Profile()
    profile.enable()
    for argument in arguments:
        calls(*argument)
    profile.disable()
    return pstats.Stats(profile).total_calls / len(arguments)


def test_calls_per_put_and_per_get(tmp_path):
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
    with DB(str(tmp_path / "store"), options) as db:
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
