"""``DB.multi_get`` equivalence with the per-key ``get`` loop.

The batched point path must be observationally identical to issuing one
``get`` per distinct key: same values, same filter verdict counters, same
recency semantics (a newer run's value or tombstone shadows older runs).
Only the aggregation differs — one ``multi_point`` QueryContext, duplicate
keys resolved once.
"""

import pytest

from repro.bench.factories import make_factory
from repro.core.bloom import SCALAR_PROBE_MAX
from repro.errors import FilterQueryError
from repro.lsm.db import DB

_VERDICT_FIELDS = (
    "filter_probes",
    "filter_negatives",
    "filter_true_positives",
    "filter_false_positives",
    "point_queries",
)


@pytest.fixture
def layered_db(tmp_path, small_db_options, rng):
    """Multiple overlapping L0 runs + a live memtable, Rosetta-filtered."""
    small_db_options.filter_factory = make_factory(
        "rosetta", small_db_options.key_bits, 18, max_range=64
    )
    database = DB(str(tmp_path / "db"), small_db_options)
    keys = rng.sample(range(1 << 28), 900)
    for chunk_start in range(0, 600, 200):
        for key in keys[chunk_start : chunk_start + 200]:
            database.put(key, b"sst-%d" % key)
        database.flush()
    # Tombstones for some flushed keys, persisted into their own run.
    for key in keys[:40]:
        database.delete(key)
    database.flush()
    # Memtable-only state: fresh values, an overwrite, and a deletion.
    for key in keys[600:650]:
        database.put(key, b"mem-%d" % key)
    database.put(keys[100], b"overwritten")
    database.delete(keys[101])
    yield database, keys
    if not database._closed:  # noqa: SLF001
        database.close()


def _mixed_batch(keys, rng):
    """Memtable hits, SST hits, tombstoned, absent, and duplicate keys."""
    absent = []
    resident = set(keys)
    while len(absent) < 120:
        key = rng.randrange(1 << 28)
        if key not in resident:
            absent.append(key)
    batch = (
        keys[:60]            # tombstoned (first 40) + oldest-run survivors
        + keys[250:320]      # middle/newest runs (L0 overlap ordering)
        + keys[600:640]      # memtable values
        + [keys[100], keys[101]]  # memtable overwrite + memtable delete
        + absent
        + [keys[300], keys[300], keys[620]]  # duplicates
    )
    rng.shuffle(batch)
    return batch


def _scalar_reference(db, batch):
    """Per-key gets over the deduplicated batch, with counter deltas."""
    distinct = list(dict.fromkeys(batch))
    before = db.stats.snapshot()
    values = {key: db.get(key) for key in distinct}
    return values, db.stats.diff(before)


class TestEquivalence:
    def test_values_match_per_key_gets(self, layered_db, rng):
        db, keys = layered_db
        batch = _mixed_batch(keys, rng)
        # Warm the filter dictionary so both passes see deserialized filters.
        db.multi_get(batch)
        scalar, _ = _scalar_reference(db, batch)
        assert db.multi_get(batch) == scalar

    def test_filter_counters_match_per_key_gets(self, layered_db, rng):
        """TP/FP/negative/probe deltas equal the scalar loop's, exactly."""
        db, keys = layered_db
        batch = _mixed_batch(keys, rng)
        db.multi_get(batch)  # warm filters and block cache
        _, scalar_delta = _scalar_reference(db, batch)
        before = db.stats.snapshot()
        db.multi_get(batch)
        batch_delta = db.stats.diff(before)
        for field in _VERDICT_FIELDS:
            assert getattr(batch_delta, field) == getattr(scalar_delta, field), field
        assert batch_delta.multi_point_queries == 1
        assert batch_delta.filter_batch_probes >= 2  # one bulk probe per run

    def test_recency_tombstone_shadows_older_value(self, layered_db):
        db, keys = layered_db
        # keys[:40] have a value in an old run and a tombstone in a newer one.
        result = db.multi_get(keys[:40])
        assert all(value is None for value in result.values())

    def test_memtable_hits_never_reach_filters(self, layered_db):
        db, keys = layered_db
        before = db.stats.snapshot()
        result = db.multi_get(keys[600:640])
        delta = db.stats.diff(before)
        assert result == {k: b"mem-%d" % k for k in keys[600:640]}
        assert delta.filter_probes == 0
        assert db.last_query.memtable_hits == 40


class TestAggregatedContext:
    def test_last_query_is_one_multi_point_context(self, layered_db, rng):
        db, keys = layered_db
        batch = _mixed_batch(keys, rng)
        db.multi_get(batch)
        ctx = db.last_query
        assert ctx.kind == "multi_point"
        assert ctx.keys_requested == len(batch)
        assert ctx.distinct_keys == len(set(batch))
        assert ctx.low == min(batch) and ctx.high == max(batch)
        assert ctx.runs_considered >= 2

    def test_duplicates_resolved_once(self, layered_db):
        db, keys = layered_db
        before = db.stats.snapshot()
        result = db.multi_get([keys[250], keys[250], keys[250], keys[601]])
        delta = db.stats.diff(before)
        assert set(result) == {keys[250], keys[601]}
        assert delta.point_queries == 2  # distinct lookups, not requests
        assert db.last_query.keys_requested == 4
        assert db.last_query.distinct_keys == 2

    def test_empty_batch(self, layered_db):
        db, _ = layered_db
        sentinel = db.last_query
        assert db.multi_get([]) == {}
        assert db.last_query is sentinel  # no context churn for a no-op

    def test_out_of_domain_key_rejected(self, layered_db):
        db, keys = layered_db
        with pytest.raises(FilterQueryError):
            db.multi_get([keys[0], 1 << db.options.key_bits])


_CHARGE_FIELDS = _VERDICT_FIELDS + (
    "filter_batch_probes",
    "block_reads",
    "block_cache_hits",
)


@pytest.fixture
def leveled_db(tmp_path, small_db_options, rng):
    """L0 runs over populated deeper levels, tombstones, a live memtable."""
    small_db_options.filter_factory = make_factory(
        "rosetta", small_db_options.key_bits, 18, max_range=64
    )
    database = DB(str(tmp_path / "db"), small_db_options)
    keys = rng.sample(range(1 << 28), 4000)
    for key in keys[:3600]:
        database.put(key, b"sst-%d" % key)
    database.flush()
    for key in keys[:60]:  # tombstones land in a newer run than the values
        database.delete(key)
    database.flush()
    for key in keys[3600:3700]:
        database.put(key, b"mem-%d" % key)
    database.delete(keys[100])
    assert database.version.max_populated_level() >= 1
    yield database, keys
    database.close()


class TestGetIsMultiGetOfOne:
    """One pipeline: a get and a one-key multi_get differ only in context."""

    def test_same_answer_and_same_charges(self, leveled_db, rng):
        db, keys = leveled_db
        resident = set(keys)
        absent = [
            k for k in (rng.randrange(1 << 28) for _ in range(80))
            if k not in resident
        ]
        probes = (
            keys[:30]             # tombstoned in a newer run
            + keys[1000:1060]     # live in the levels
            + keys[3600:3620]     # memtable values
            + [keys[100]]         # memtable tombstone
            + absent
        )
        db.multi_get(probes)  # warm filters and the block cache
        for key in probes:
            before = db.stats.snapshot()
            single = db.get(key)
            single_delta, single_ctx = db.stats.diff(before), db.last_query
            before = db.stats.snapshot()
            batched = db.multi_get([key])[key]
            batched_delta, batched_ctx = db.stats.diff(before), db.last_query
            assert single == batched
            for field in _CHARGE_FIELDS:
                assert getattr(single_delta, field) == getattr(batched_delta, field), (key, field)
            assert (single_ctx.kind, batched_ctx.kind) == ("point", "multi_point")
            assert single_ctx.memtable_hit == bool(batched_ctx.memtable_hits)
            assert single_ctx.runs_considered == batched_ctx.runs_considered

    def test_get_charges_one_filter_call_per_run_consulted(self, leveled_db):
        db, keys = leveled_db
        db.get(keys[2000])
        before = db.stats.snapshot()
        assert db.get(keys[2000]) == b"sst-%d" % keys[2000]
        delta = db.stats.diff(before)
        assert delta.filter_batch_probes == delta.filter_probes >= 1

    @pytest.mark.parametrize("offset", [-1, 0, 1, 2])
    def test_single_run_groups_around_the_kernel_switch(
        self, tmp_path, small_db_options, rng, offset
    ):
        """PerfStats charges of a run-sized group equal the per-key loop's."""
        small_db_options.filter_factory = make_factory(
            "rosetta", small_db_options.key_bits, 18, max_range=64
        )
        with DB(str(tmp_path / "one"), small_db_options) as db:
            keys = sorted(rng.sample(range(1 << 28), 150))
            for key in keys:
                db.put(key, b"v")
            db.flush()
            assert db.num_live_files() == 1
            size = SCALAR_PROBE_MAX + offset
            present = keys[: size // 2]
            absent = [k + 1 for k in keys[40:] if k + 1 not in keys]
            group = present + absent[: size - len(present)]
            assert len(group) == size
            db.multi_get(group)
            scalar, scalar_delta = _scalar_reference(db, group)
            before = db.stats.snapshot()
            assert db.multi_get(group) == scalar
            batch_delta = db.stats.diff(before)
            for field in _VERDICT_FIELDS:
                assert getattr(batch_delta, field) == getattr(scalar_delta, field), field
            assert batch_delta.filter_batch_probes == 1
            assert batch_delta.filter_probes == len(group)
