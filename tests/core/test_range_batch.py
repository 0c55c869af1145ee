"""Runs of range lookups, one ``may_contain_range`` call per range.

A store answers a range read with one call per overlapping run
(``batched_tightened_ranges``); a filter answers each call with the
pre-order walk or the frontier engine.  Over many ranges the entry, the
walk and the engine must agree, clamp and raise alike, and charge per
call.
"""

import pytest

from repro.core.doubting import doubt_frontier
from repro.core.rosetta import Rosetta
from repro.errors import FilterQueryError
from repro.lsm.filter_integration import batched_tightened_ranges


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
