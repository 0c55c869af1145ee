"""Runs of range lookups, one verdict per range and run.

A store answers a range read with one verdict per overlapping run
(``batched_tightened_ranges``): the runs whose Rosettas share a shape are
doubted in one pre-order walk (``range_verdicts``), any other filter is
asked alone, and a filter alone takes the walk or the frontier engine.
Over many ranges the entry, the walk and the engine must agree, clamp and
raise alike, and charge per call — the shared walk exactly what each run
walked alone would.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.factories import make_factory
from repro.core.allocation import STRATEGIES
from repro.core.doubting import doubt_frontier
from repro.core.rosetta import Rosetta, range_verdicts
from repro.errors import FilterQueryError
from repro.filters.base import deserialize_filter, serialize_envelope
from repro.filters.rosetta_adapter import RosettaFilter
from repro.lsm.filter_integration import batched_tightened_ranges
from tests.core.test_probe_oracle import ReferenceWalk


def _queries(rng, count, size):
    lows = [rng.randrange((1 << 32) - size) for _ in range(count)]
    return lows, [low + size - 1 for low in lows]


def _assert_kernels_agree(filt, lows, highs):
    for low, high in zip(lows, highs):
        verdict = filt.may_contain_range(low, high)
        assert verdict == filt._walk(low, high, None), (low, high)
        assert verdict == doubt_frontier(filt.levels, low, high).answer


class TestSingleLevelFastPath:
    @pytest.fixture
    def filt(self, small_keys):
        return Rosetta.build(
            small_keys, key_bits=32, bits_per_key=18, max_range=32,
            strategy="single",
        )

    def test_matches_scalar(self, filt, rng):
        lows, highs = _queries(rng, 300, 16)
        _assert_kernels_agree(filt, lows, highs)

    def test_no_false_negatives(self, filt, small_keys):
        assert all(
            filt.may_contain_range(max(0, k - 3), k + 3)
            for k in small_keys[:300]
        )

    def test_probe_accounting(self, filt):
        filt.stats.reset()
        filt.may_contain_range(0, 7)
        filt.may_contain_range(100, 115)
        assert filt.stats.range_queries == 2
        assert filt.stats.bloom_probes == 8 + 16

    def test_high_clamped_to_domain(self, filt):
        top = (1 << 32) - 1
        clamped = filt.may_contain_range(top - 3, top + 101)
        assert clamped == filt.may_contain_range(top - 3, top)
        assert isinstance(clamped, bool)

    def test_invalid_inputs(self, filt):
        with pytest.raises(FilterQueryError):
            filt.may_contain_range(5, 4)
        # The store's per-run loop raises too, even past a fence-only run.
        with pytest.raises(FilterQueryError):
            batched_tightened_ranges([None, filt], 5, 4)


class TestMultiLevelFallback:
    def test_matches_scalar(self, small_keys, rng):
        filt = Rosetta.build(
            small_keys, key_bits=32, bits_per_key=18, max_range=32,
            strategy="equilibrium",
        )
        lows, highs = _queries(rng, 200, 16)
        _assert_kernels_agree(filt, lows, highs)

    def test_empty_filter(self):
        filt = Rosetta.build([], key_bits=16, bits_per_key=10)
        assert not filt.may_contain_range(0, 3)
        assert not filt.may_contain_range(5, 9)
        assert filt.stats.bloom_probes == 0


@settings(max_examples=120, deadline=None)
@given(
    key_bits=st.sampled_from([16, 32, 64]),
    strategy=st.sampled_from(STRATEGIES),
    bits_per_key=st.sampled_from([3.0, 10.0, 22.0]),
    max_range=st.sampled_from([1, 16, 64]),
    sizes=st.lists(st.integers(0, 300), min_size=1, max_size=4),
    salted=st.lists(st.booleans(), min_size=4, max_size=4),
    budget=st.one_of(st.none(), st.integers(1, 30)),
    data=st.data(),
)
def test_one_walk_over_runs_equals_each_run_walked_alone(
    key_bits, strategy, bits_per_key, max_range, sizes, salted, budget, data
):
    """Verdicts and every run's ProbeStats, for 1-4 runs of one shape, equal
    each run walked alone by the reference Algorithm 2: every allocation
    (zero-bit levels included), salted and unsalted runs side by side,
    empty runs (negative, unprobed), budgets, and the domain's two ends."""
    top = (1 << key_bits) - 1
    rng = data.draw(st.randoms(use_true_random=False))
    runs = []
    for size, salt in zip(sizes, salted):
        keys = set(rng.sample(range(1 << min(key_bits, 40)), size))
        keys |= {key for key in (0, top, top - 70) if rng.random() < 0.3}
        runs.append(Rosetta.build(
            keys, key_bits=key_bits, bits_per_key=bits_per_key,
            max_range=max_range, strategy=strategy,
            salt=rng.getrandbits(64) if salt else 0,
        ))
    anchors = [0, top, top - 70, rng.randrange(1 << min(key_bits, 40))]
    for _ in range(12):
        anchor = rng.choice(anchors)
        low = max(0, min(top, anchor - rng.randrange(80)))
        high = min(top, low + rng.randrange(max_range * 3 + 1))
        want = [
            ReferenceWalk(run).query(low, high, budget) if run.num_keys
            else (False, 0, 0)
            for run in runs
        ]
        for run in runs:
            run.stats.reset()
        verdicts = range_verdicts(runs, low, high, budget)
        got = [
            (verdict, run.stats.bloom_probes, run.stats.dyadic_intervals)
            for verdict, run in zip(verdicts, runs)
        ]
        assert got == want, (low, high)
        assert all(run.stats.range_queries == 1 for run in runs)


def test_batched_probe_mixes_shapes_and_kinds(small_keys, rng):
    """Rosettas of the first shape walk together; another shape, another
    filter kind and a fence-only run are each asked alone; a range past
    ``WALK_MAX_INTERVALS`` takes the engine filter by filter."""
    def rosetta(keys, max_range, salt=0):
        filt = RosettaFilter(key_bits=32, bits_per_key=14, max_range=max_range,
                             salt=salt)
        filt.populate(keys)
        return filt

    filters = [
        rosetta(small_keys[:700], 64),
        make_factory("prefix-bloom", 32, 14).build(small_keys[700:1400]),
        None,
        rosetta(small_keys[1400:], 16),
        rosetta(small_keys[700:1400], 64, salt=0x5A17),
    ]
    twins = [
        filt and deserialize_filter(serialize_envelope(filt)) for filt in filters
    ]
    for query in range(150):
        key = rng.choice(small_keys)
        low = max(0, key - rng.randrange(80))
        high = low + (rng.randrange(64) if query % 10 else 1 << 20)
        verdicts, calls = batched_tightened_ranges(filters, low, high)
        assert calls == 4
        assert verdicts == [
            filt is None or filt.may_contain_range(low, high) for filt in twins
        ], (low, high)
    for filt, twin in zip(filters, twins):
        if isinstance(filt, RosettaFilter):
            assert filt.core.stats == twin.core.stats
