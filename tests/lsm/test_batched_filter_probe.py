"""Range reads ask each overlapping run's filter ``may_contain_range``."""

import pytest

from repro.bench.factories import make_factory
from repro.lsm.db import DB
from repro.lsm.filter_integration import batched_tightened_ranges


@pytest.fixture
def filtered_db(tmp_path, small_db_options, rng):
    small_db_options.filter_factory = make_factory(
        "rosetta", small_db_options.key_bits, 18, max_range=64
    )
    database = DB(str(tmp_path / "db"), small_db_options)
    # Several flushes -> several SSTs, so one range query spans runs.
    keys = rng.sample(range(1 << 28), 600)
    for chunk_start in range(0, 600, 150):
        for key in keys[chunk_start : chunk_start + 150]:
            database.put(key, b"v" * 16)
        database.flush()
    yield database, sorted(keys)
    if not database._closed:  # noqa: SLF001
        database.close()


def test_range_read_uses_batched_probe(filtered_db):
    db, keys = filtered_db
    assert db.stats.filter_batch_probes == 0
    results = db.range_query(keys[10], keys[20])
    assert [k for k, _ in results] == keys[10:21]
    # One filter call, and one verdict, per filtered run consulted.
    probed_runs = db.stats.filter_probes
    assert probed_runs >= 2  # multiple SSTs actually participated
    assert db.stats.filter_batch_probes == probed_runs
    assert db.last_query.filters_probed == probed_runs


def test_verdict_per_run_equals_filter_may_contain_range(filtered_db, rng):
    """The helper's verdicts are each filter's own; no filter means positive."""
    db, keys = filtered_db
    runs = db.version.all_runs_newest_first()
    filters = [
        db._filter_dictionary.get_filter(run.reader, db.stats)  # noqa: SLF001
        for run in runs
    ]
    assert sum(f is not None for f in filters) >= 2
    filters.append(None)  # a run with fence pointers only
    for _ in range(25):
        low = rng.randrange((1 << 28) - 64)
        high = low + rng.randrange(64)
        verdicts, filter_calls = batched_tightened_ranges(filters, low, high)
        assert filter_calls == len(filters) - 1
        for filt, got in zip(filters, verdicts):
            assert got == (filt is None or filt.may_contain_range(low, high))


def test_empty_range_still_counts_negatives(filtered_db):
    db, keys = filtered_db
    # A gap between consecutive stored keys is empty by construction.
    gaps = [
        (a + 1, b - 1)
        for a, b in zip(keys, keys[1:])
        if b - a > 2
    ]
    low, high = gaps[len(gaps) // 2]
    high = min(high, low + 63)
    before = db.stats.snapshot()
    assert db.range_query(low, high) == []
    delta = db.stats.diff(before)
    assert delta.filter_batch_probes == delta.filter_probes >= 1
    assert delta.filter_negatives + delta.filter_false_positives == delta.filter_probes
    assert delta.filter_negatives >= 1
