"""Kernel-independent accounting and range-validation edge cases.

Regression suite for two paper-fidelity bugs:

* A short range used to be charged the bulk frontier's level-synchronous
  probe counts (8 probes / 2 intervals for ``[8, 12]`` on the Fig. 2
  example) where the sequential recursion charges 3 / 1.  A range the
  walk serves must charge what the walk does.
* Ranges whose clamped bounds are empty (``low > high``) answer ``False``
  without probing.  That must never leak out as a silent ``False`` for
  *publicly inverted* ranges — every entry point raises
  :exc:`FilterQueryError` first.

Point lookups have one batched entry (``BloomFilter.contains_batch``) that
picks the per-item loop or the vector kernel from the group size; a range
lookup picks the pre-order walk or the frontier engine from its own dyadic
interval count.  Verdicts and typed errors must not show which kernel ran.

The same rule one layer up (``TestStoreLedgerParity``): what a store's reads
report query by query in ``last_query`` is what ``PerfStats`` accumulates,
and it does not depend on whether keys arrived one ``get`` at a time or in
one ``multi_get``.
"""

import random

import pytest

from repro.core.allocation import STRATEGIES
from repro.core.bloom import SCALAR_PROBE_MAX
from repro.core.doubting import doubt_frontier
from repro.core.dyadic import count_intervals
from repro.core.rosetta import WALK_MAX_INTERVALS, Rosetta
from repro.errors import FilterQueryError
from repro.bench.factories import make_factory
from repro.filters.bloom_point import BloomPointFilter
from repro.filters.rosetta_adapter import RosettaFilter
from repro.lsm.db import DB
from repro.lsm.filter_integration import batched_tightened_ranges
from repro.lsm.options import DBOptions

TINY_KEYS = [3, 6, 7, 8, 9, 11]  # the paper's running example (Fig. 2)


def _tiny():
    return Rosetta.build(
        TINY_KEYS, key_bits=4, bits_per_key=24.0, max_range=8
    )


def _charges(rosetta, issue):
    """(verdict, bloom_probes, dyadic_intervals) deltas for one query."""
    probes, intervals = rosetta.stats.bloom_probes, rosetta.stats.dyadic_intervals
    verdict = issue(rosetta)
    return (
        verdict,
        rosetta.stats.bloom_probes - probes,
        rosetta.stats.dyadic_intervals - intervals,
    )


class TestSingleQueryParity:
    def test_tiny_example_pinned_charges(self):
        """[8, 12] on Fig. 2: 1 dyadic interval, 3 probes, entry and walk."""
        scalar = _charges(_tiny(), lambda r: r.may_contain_range(8, 12))
        walk = _charges(_tiny(), lambda r: r._walk(8, 12, None))
        assert scalar == walk == (True, 3, 1)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_random_single_query_parity(self, strategy, rng, small_keys):
        """The entry charges what the walk does, on a round-tripped copy."""
        rosetta = Rosetta.build(
            small_keys,
            key_bits=32,
            bits_per_key=14.0,
            max_range=64,
            strategy=strategy,
        )
        copy = Rosetta.from_bytes(rosetta.to_bytes())
        for _ in range(50):
            low = rng.randrange((1 << 32) - 64)
            high = low + rng.randrange(64)
            want = _charges(
                rosetta, lambda r: r.may_contain_range(low, high)
            )
            got = _charges(copy, lambda r: r._walk(low, high, None))
            assert got == want, (low, high)

    def test_batch_of_one_dead_query_among_live(self, small_keys):
        """A range clamped dead costs nothing; the live one next to it
        still charges what the walk does."""
        rosetta = Rosetta.build(
            small_keys, key_bits=32, bits_per_key=14.0, max_range=64
        )
        key = small_keys[0]
        beyond = 1 << 40  # clamps to an empty range
        walk = _charges(rosetta, lambda r: r._walk(key, key, None))
        dead = _charges(rosetta, lambda r: r.may_contain_range(beyond, beyond))
        live = _charges(rosetta, lambda r: r.may_contain_range(key, key))
        assert dead == (False, 0, 0)
        assert live == walk and live[0]


#: Group sizes on both sides of the scalar/vector kernel switch — and the
#: sizes that flanked it while it sat at 8, so those cases keep running
#: under the names they have always had.
BOUNDARY_SIZES = sorted({
    7, 8, 9, 10,
    SCALAR_PROBE_MAX - 1,
    SCALAR_PROBE_MAX,
    SCALAR_PROBE_MAX + 1,
    SCALAR_PROBE_MAX + 2,
})

_POINT_FILTERS = {
    "unsalted": dict(key_bits=32, bits_per_key=12.0, max_range=16),
    "salted": dict(key_bits=32, bits_per_key=12.0, max_range=16, salt=0xA5A5F00D),
    "always_positive_leaf": dict(key_bits=32, bits_per_key=0.0, max_range=16),
    "empty_filter": dict(key_bits=32, bits_per_key=12.0, max_range=16),
    "wide_domain": dict(key_bits=96, bits_per_key=12.0, max_range=16),
}


class TestKernelBoundaryParity:
    """A key group costs and answers what the per-key loop does."""

    @pytest.mark.parametrize("size", BOUNDARY_SIZES)
    @pytest.mark.parametrize("shape", sorted(_POINT_FILTERS))
    def test_group_equals_per_key_loop(self, shape, size):
        params = _POINT_FILTERS[shape]
        rng = random.Random(size)
        domain = 1 << params["key_bits"]
        stored = (
            [] if shape == "empty_filter"
            else [rng.randrange(domain) for _ in range(300)]
        )
        grouped = Rosetta.build(stored, **params)
        looped = Rosetta.from_bytes(grouped.to_bytes())
        probes = [
            rng.choice(stored) if stored and rng.random() < 0.5
            else rng.randrange(domain)
            for _ in range(size - 2)
        ]
        probes += probes[:2]  # duplicates are probed and charged per key
        assert len(probes) == size
        want = [looped.may_contain(key) for key in probes]
        assert grouped.may_contain_each(probes) == want
        assert grouped.stats == looped.stats
        assert grouped.stats.point_queries == size

    @pytest.mark.parametrize("size", BOUNDARY_SIZES)
    @pytest.mark.parametrize("salt", [0, 0x5EED5EED])
    def test_adapters_equal_per_key_loop(self, size, salt, small_keys):
        rng = random.Random(size)
        probes = [
            rng.choice(small_keys) if rng.random() < 0.5 else rng.randrange(1 << 32)
            for _ in range(size)
        ]
        for adapter in (
            RosettaFilter(key_bits=32, bits_per_key=12.0, max_range=16, salt=salt),
            BloomPointFilter(key_bits=32, bits_per_key=10.0, salt=salt),
        ):
            adapter.populate(small_keys)
            want = [adapter.may_contain(key) for key in probes]
            loop_probes = adapter.probe_count()
            adapter.reset_probe_count()
            assert adapter.may_contain_batch(probes) == want
            assert adapter.probe_count() == loop_probes == size

    @pytest.mark.parametrize("bad", [-1, 1 << 64])
    def test_out_of_domain_key_is_a_typed_error_on_every_path(self, bad):
        """Both kernels reject before converting: never an OverflowError."""
        rosetta = Rosetta.build([1, 2, 3], key_bits=64, bits_per_key=12.0)
        adapter = RosettaFilter(key_bits=64, bits_per_key=12.0)
        adapter.populate([1, 2, 3])
        bloom = BloomPointFilter(key_bits=64, bits_per_key=10.0)
        bloom.populate([1, 2, 3])
        large = list(range(SCALAR_PROBE_MAX + 4)) + [bad]
        entry_points = [
            lambda: rosetta.may_contain(bad),
            lambda: rosetta.may_contain_each([bad]),
            lambda: rosetta.may_contain_each(large),
            lambda: adapter.may_contain(bad),
            lambda: adapter.may_contain_batch([bad]),
            lambda: adapter.may_contain_batch(large),
            lambda: bloom.may_contain_batch([bad]),
            lambda: bloom.may_contain_batch(large),
        ]
        for issue in entry_points:
            with pytest.raises(FilterQueryError):
                issue()


#: Interval counts on both sides of the walk/engine kernel switch — and
#: the counts that flanked it while it sat at 64 (see BOUNDARY_SIZES).
BOUNDARY_INTERVALS = sorted({
    63, 64, 65,
    WALK_MAX_INTERVALS - 1,
    WALK_MAX_INTERVALS,
    WALK_MAX_INTERVALS + 1,
})

_RANGE_HEIGHT = 4  # max_range=16 below: full-height blocks hold 16 keys

_RANGE_FILTERS = {
    "unsalted": dict(key_bits=32, bits_per_key=12.0, max_range=16),
    "salted": dict(key_bits=32, bits_per_key=12.0, max_range=16, salt=0xA5A5F00D),
    # "variable" at this budget zeroes the two top levels.
    "always_positive_top": dict(
        key_bits=32, bits_per_key=10.0, max_range=16, strategy="variable"
    ),
    "uint64_domain": dict(key_bits=64, bits_per_key=12.0, max_range=16),
}


def _range_of(intervals, anchor):
    """A range of exactly ``intervals`` top-level blocks that holds ``anchor``.

    One ragged leaf on each side of a run of full-height blocks, the
    anchor's block first among them.
    """
    first_block = (anchor >> _RANGE_HEIGHT) << _RANGE_HEIGHT
    low = first_block - 1
    high = first_block + ((intervals - 2) << _RANGE_HEIGHT)
    assert count_intervals(low, high, _RANGE_HEIGHT) == intervals
    return low, high


class TestRangeKernelBoundaryParity:
    """The public entry answers what the walk and the engine both do."""

    @staticmethod
    def _kernels(rosetta, low, high):
        walk = rosetta._walk(low, high, None)
        engine = doubt_frontier(rosetta.levels, low, high).answer
        return walk, engine

    @pytest.mark.parametrize("intervals", BOUNDARY_INTERVALS)
    @pytest.mark.parametrize("shape", sorted(_RANGE_FILTERS))
    def test_one_wide_query(self, shape, intervals):
        params = _RANGE_FILTERS[shape]
        rng = random.Random(intervals)
        margin = (WALK_MAX_INTERVALS + 4) << _RANGE_HEIGHT
        top = (1 << params["key_bits"]) - margin
        stored = [rng.randrange(margin, top) for _ in range(300)]
        rosetta = Rosetta.build(stored, **params)
        assert rosetta.max_height == _RANGE_HEIGHT
        anchors = stored[:20] + [rng.randrange(margin, top) for _ in range(40)]
        for position, anchor in enumerate(anchors):
            low, high = _range_of(intervals, anchor)
            walk, engine = self._kernels(rosetta, low, high)
            rosetta.stats.reset()
            assert rosetta.may_contain_range(low, high) == walk == engine
            took_engine = rosetta.stats.bulk_probe_calls > 0
            assert took_engine == (intervals > WALK_MAX_INTERVALS)
            if position < 20:
                assert walk  # holds a stored key: no false negative

    @pytest.mark.parametrize("intervals", BOUNDARY_INTERVALS)
    @pytest.mark.parametrize("shape", sorted(_RANGE_FILTERS))
    def test_many_short_queries(self, shape, intervals):
        """Short ranges walk however many arrive: the rule reads one
        range's intervals, never a sum over calls."""
        params = _RANGE_FILTERS[shape]
        rng = random.Random(intervals)
        domain = 1 << params["key_bits"]
        stored = [rng.randrange(domain) for _ in range(300)]
        rosetta = Rosetta.build(stored, **params)
        keys = [
            rng.choice(stored) if rng.random() < 0.5 else rng.randrange(domain)
            for _ in range(intervals)
        ]
        rosetta.stats.reset()
        for key in keys:
            walk, engine = self._kernels(rosetta, key, key)
            assert rosetta.may_contain_range(key, key) == walk == engine
            assert walk or key not in stored
        assert rosetta.stats.range_queries == intervals
        assert rosetta.stats.bulk_probe_calls == 0

    @pytest.mark.parametrize("intervals", BOUNDARY_INTERVALS)
    def test_domain_top_and_full_domain(self, intervals):
        top = (1 << 64) - 1
        stored = [5, 1 << 40, top]
        short = Rosetta.build(stored, key_bits=64, bits_per_key=16.0, max_range=16)
        low = top + 1 - (intervals << _RANGE_HEIGHT)
        assert count_intervals(low, top, _RANGE_HEIGHT) == intervals
        assert self._kernels(short, low, top) == (True, True)
        assert self._kernels(short, 0, top) == (True, True)
        assert short.may_contain_range(low, top)
        assert short.may_contain_range(low, top + 10**6)  # clamped
        assert short.may_contain_range(0, top)
        empty_low, empty_high = _range_of(intervals, 1 << 50)
        walk, engine = self._kernels(short, empty_low, empty_high)
        assert short.may_contain_range(empty_low, empty_high) == walk == engine
        # A tree as tall as the domain covers it with a single interval.
        tall = Rosetta.build(
            stored, key_bits=64, bits_per_key=130.0, max_range=1 << 64
        )
        assert tall.may_contain_range(0, top)
        assert self._kernels(tall, 0, top) == (True, True)

    @pytest.mark.parametrize("intervals", BOUNDARY_INTERVALS)
    def test_empty_filter_and_wide_domain(self, intervals):
        empty = Rosetta.build([], key_bits=32, bits_per_key=12.0, max_range=16)
        low, high = _range_of(intervals, 1 << 20)
        assert not empty.may_contain_range(low, high)
        assert empty.stats.bloom_probes == 0
        # 96-bit keys cannot ride the engine's uint64 arrays: walk only.
        rng = random.Random(intervals)
        stored = [rng.randrange(1 << 90, 1 << 95) for _ in range(200)]
        wide = Rosetta.build(stored, key_bits=96, bits_per_key=12.0, max_range=16)
        anchors = stored[:10] + [rng.randrange(1 << 90, 1 << 95) for _ in range(20)]
        ranges = [_range_of(intervals, anchor) for anchor in anchors]
        want = [wide._walk(lo, hi, None) for lo, hi in ranges]
        assert all(want[:10])
        assert [wide.may_contain_range(lo, hi) for lo, hi in ranges] == want
        assert wide.stats.bulk_probe_calls == 0

    @pytest.mark.parametrize("intervals", BOUNDARY_INTERVALS)
    def test_probe_budget_gives_up_at_the_same_probe_count(self, intervals):
        """A budgeted call walks, however many intervals it covers."""
        rng = random.Random(7)
        stored = [rng.randrange(1 << 32) for _ in range(300)]
        rosetta = Rosetta.build(
            stored, key_bits=32, bits_per_key=30.0, max_range=16
        )
        # No stored key nearby: unbudgeted, every interval is doubted and
        # refused, at one probe or more each.
        low, high = _range_of(intervals, 1 << 31)
        assert not rosetta._walk(low, high, None)
        assert rosetta.stats.bloom_probes >= intervals
        for budget in (1, 5, WALK_MAX_INTERVALS - 2):
            rosetta.stats.reset()
            # Gave up: a sound positive.
            assert rosetta.may_contain_range(low, high, probe_budget=budget)
            assert rosetta.stats.bloom_probes == budget
            assert rosetta.stats.bulk_probe_calls == 0


class TestRangeValidation:
    """Inverted ranges raise; boundary ranges answer soundly."""

    def test_inverted_range_raises_everywhere(self):
        rosetta = _tiny()
        adapter = RosettaFilter(key_bits=4, bits_per_key=24.0, max_range=8)
        adapter.populate(TINY_KEYS)
        empty = Rosetta.build([], key_bits=4, bits_per_key=24.0, max_range=8)
        entry_points = [
            lambda: rosetta.may_contain_range(9, 5),
            lambda: rosetta.tightened_range(9, 5),
            lambda: adapter.may_contain_range(9, 5),
            lambda: adapter.tightened_range(9, 5),
            # Checked before the empty-filter and dead-range shortcuts.
            lambda: empty.may_contain_range(9, 5),
            lambda: rosetta.may_contain_range(1 << 9, 1 << 5),
        ]
        for issue in entry_points:
            with pytest.raises(FilterQueryError):
                issue()

    def test_inverted_pair_inside_live_batch_raises(self):
        """The store's per-run loop raises on an inverted range among live
        and fence-only runs — never a silent False."""
        adapter = RosettaFilter(key_bits=4, bits_per_key=24.0, max_range=8)
        adapter.populate(TINY_KEYS)
        runs = [None, _tiny(), adapter]
        assert batched_tightened_ranges(runs, 8, 12) == ([True] * 3, 2)
        with pytest.raises(FilterQueryError):
            batched_tightened_ranges(runs, 9, 5)

    def test_single_key_range(self):
        rosetta = _tiny()
        for key in TINY_KEYS:
            assert rosetta.may_contain_range(key, key)
        # 5 is absent from the example keys and 4 is a dyadic boundary.
        assert not rosetta.may_contain_range(5, 5)

    def test_full_domain_range_clamps(self):
        """Out-of-domain endpoints clamp (not raise) when low <= high."""
        rosetta = _tiny()
        assert rosetta.may_contain_range(0, (1 << 4) - 1)
        assert rosetta.may_contain_range(0, 10**9)  # clamped to domain max
        # Wholly past the domain: clamps empty, answers False, probes nothing.
        assert _charges(
            rosetta, lambda r: r.may_contain_range(1 << 40, 1 << 41)
        ) == (False, 0, 0)
        assert rosetta.stats.range_queries == 3


#: PerfStats field -> the QueryContext field a read folds into it.
_LEDGER_FIELDS = {
    "block_reads": "blocks_read",
    "block_read_bytes": "block_read_bytes",
    "block_read_time_ns": "block_read_time_ns",
    "block_cache_hits": "block_cache_hits",
    "block_cache_misses": "block_cache_misses",
    "filter_probes": "filters_probed",
    "filter_batch_probes": "filter_calls",
    "filter_negatives": "filter_negatives",
    "filter_true_positives": "filter_true_positives",
    "filter_false_positives": "filter_false_positives",
    "filter_probe_ns": "filter_probe_ns",
    "residual_seek_ns": "residual_seek_ns",
    "point_queries": "distinct_keys",
}


class TestStoreLedgerParity:
    """``last_query`` and ``PerfStats`` reconcile query by query."""

    @pytest.fixture
    def store(self, tmp_path):
        """Filtered runs on several levels, a cache an eighth of the data,
        a live memtable — and no filter resolved yet, so the stream's first
        touches fetch filter blocks inside the touching query."""
        options = DBOptions(
            key_bits=32,
            memtable_size_bytes=8 << 10,
            sst_size_bytes=16 << 10,
            max_bytes_for_level_base=64 << 10,
            block_size_bytes=1024,
            block_cache_bytes=16 << 10,
            filter_factory=make_factory("rosetta", 32, 14, max_range=32),
        )
        path = str(tmp_path / "ledger")
        with DB(path, options) as loading:
            for i in range(4000):
                loading.put(i * 9, b"v%d" % i)
        db = DB(path, options)  # cold: empty cache, nothing deserialized
        for i in range(20):
            db.put(50_000 + i, b"buffered")
        yield db
        db.close()

    def test_last_query_sums_to_the_perfstats_delta(self, store):
        rng = random.Random(21)
        before = store.stats.snapshot()
        totals = dict.fromkeys(_LEDGER_FIELDS, 0)
        kinds = {"point": 0, "multi_point": 0, "range": 0}
        for _ in range(400):
            low = rng.randrange(0, 4000 * 9 + 500)
            op = rng.randrange(3)
            if op == 0:
                store.get(low)
            elif op == 1:
                store.multi_get(
                    [low, low + 1] + [rng.randrange(60_000) for _ in range(6)]
                )
            else:
                store.range_query(low, low + rng.randrange(1, 150))
            context = store.last_query
            kinds[context.kind] += 1
            for stat_field, context_field in _LEDGER_FIELDS.items():
                totals[stat_field] += getattr(context, context_field)
        delta = store.stats.diff(before)
        for stat_field, total in totals.items():
            assert getattr(delta, stat_field) == total, stat_field
        assert delta.range_queries == kinds["range"] > 0
        assert delta.multi_point_queries == kinds["multi_point"] > 0
        # The stream did touch the device, the cache and cold filter blocks.
        assert delta.block_reads > 0 < delta.block_cache_hits
        assert delta.filter_false_positives + delta.filter_negatives > 0

    def test_multi_get_equals_the_per_key_gets(self, store):
        rng = random.Random(22)
        keys = [rng.randrange(0, 4000 * 9) for _ in range(60)] + [50_003]
        keys += [key + 1 for key in keys[:20]]
        store.multi_get(keys)  # resolve every filter the keys will touch
        summed = (
            "filters_probed", "filter_negatives", "filter_true_positives",
            "filter_false_positives", "iterators_created", "results",
            "memtable_hits",
        )

        def touched(context):
            return context.blocks_read + context.block_cache_hits

        singles, per_key = {}, dict.fromkeys(summed + ("touched",), 0)
        for key in dict.fromkeys(keys):
            singles[key] = store.get(key)
            context = store.last_query
            per_key["touched"] += touched(context)
            for name in summed:
                per_key[name] += getattr(context, name)
        assert store.multi_get(keys) == singles
        batch = store.last_query
        assert batch.distinct_keys == len(singles)
        assert touched(batch) == per_key["touched"]
        for name in summed:
            assert getattr(batch, name) == per_key[name], name
