"""Kitchen-sink stress test: every store feature interacting at once.

Leveled compaction + Rosetta filters + atomic batches + deletes + retuning
+ full compaction + verification + recovery, driven against a dict oracle.
If any two features interact badly, this is where it shows.
"""

import bisect
import random

from repro.bench.factories import make_factory
from repro.lsm.db import DB
from repro.lsm.options import DBOptions


def test_everything_at_once(tmp_path):
    options = DBOptions(
        key_bits=32,
        memtable_size_bytes=4 << 10,
        sst_size_bytes=16 << 10,
        max_bytes_for_level_base=48 << 10,
        block_size_bytes=512,
        block_cache_bytes=32 << 10,
        filter_factory=make_factory("rosetta", 32, 16, max_range=64),
    )
    path = str(tmp_path / "sink")
    db = DB(path, options)
    rng = random.Random(0xABCDEF)
    model: dict[int, bytes] = {}

    def oracle_range(low, high):
        ordered = sorted(model)
        idx = bisect.bisect_left(ordered, low)
        out = []
        while idx < len(ordered) and ordered[idx] <= high:
            out.append((ordered[idx], model[ordered[idx]]))
            idx += 1
        return out

    # Phase 1: interleaved singles, batches, deletes.
    for round_number in range(6):
        for _ in range(400):
            key = rng.randrange(1 << 18)
            value = f"r{round_number}-{key}".encode()
            db.put(key, value)
            model[key] = value
        batch = db.batch()
        for _ in range(50):
            key = rng.randrange(1 << 18)
            if rng.random() < 0.3 and model:
                victim = rng.choice(sorted(model))
                batch.delete_int(victim)
                model.pop(victim, None)
            else:
                value = f"b{round_number}-{key}".encode()
                batch.put_int(key, value)
                model[key] = value
        db.write(batch)
        # Interleave reads so the tracker learns a short-range workload.
        for _ in range(20):
            low = rng.randrange(1 << 18)
            assert db.range_query(low, low + 7) == oracle_range(low, low + 7)

    # Phase 2: retune from observed statistics, then rebuild everything.
    decision = db.retune_filters()
    assert decision.strategy == "single"  # size-8 ranges dominated
    db.force_full_compaction()
    report = db.verify()
    assert report.ok, report.errors

    # Phase 3: post-rebuild correctness, point and range.
    sample = rng.sample(sorted(model), 200)
    for key in sample:
        assert db.get(key) == model[key]
    for _ in range(100):
        low = rng.randrange(1 << 18)
        high = low + rng.randrange(0, 64)
        assert db.range_query(low, high) == oracle_range(low, high)

    # Phase 4: crash (no close), recover, re-check including the WAL tail.
    db.put(424242, b"wal-tail")
    model[424242] = b"wal-tail"
    db._env.close()  # noqa: SLF001

    db2 = DB(path, options)
    assert db2.get(424242) == b"wal-tail"
    for key in sample[:50]:
        assert db2.get(key) == model[key]
    assert db2.verify().ok
    # Statistics survived too.
    assert db2.tracker.num_range_queries > 0
    db2.close()
