"""Unit tests for the access-frequency model g(r) (Eq. 1-2) and weights."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.frequency import (
    access_frequencies,
    cumulative_weights,
    floor_log2,
    single_level_term,
    weighted_frequencies,
)


class TestFloorLog2:
    def test_values(self):
        assert floor_log2(1) == 0
        assert floor_log2(2) == 1
        assert floor_log2(3) == 1
        assert floor_log2(64) == 6
        assert floor_log2(65) == 6

    def test_invalid(self):
        with pytest.raises(ValueError):
            floor_log2(0)


class TestSingleLevelTerm:
    def test_below_top_is_one(self):
        # floor(log2 64) = 6; levels 0..5 contribute 1 each.
        for level in range(6):
            assert single_level_term(level, 64) == 1.0

    def test_at_top_power_of_two(self):
        # x == log2(R), R power of 2: (R - 2^x + 1) / 2^x = 1/2^x ... for
        # R=64, x=6: (64-64+1)/64 = 1/64.
        assert single_level_term(6, 64) == pytest.approx(1 / 64)

    def test_at_top_non_power(self):
        # R=100, top=6: (100-64+1)/64 = 37/64.
        assert single_level_term(6, 100) == pytest.approx(37 / 64)

    def test_above_top_is_zero(self):
        assert single_level_term(7, 64) == 0.0

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            single_level_term(-1, 8)


class TestAccessFrequencies:
    def test_length(self):
        assert len(access_frequencies(64)) == 7
        assert len(access_frequencies(1)) == 1

    def test_monotone_decreasing_in_height(self):
        g = access_frequencies(512)
        assert all(a >= b for a, b in zip(g, g[1:]))

    def test_leaf_has_highest_frequency(self):
        g = access_frequencies(64)
        # g(0) = 6 + 1/64 (paper closed form for power-of-two R).
        assert g[0] == pytest.approx(6 + 1 / 64)
        assert g[6] == pytest.approx(1 / 64)

    def test_range_one(self):
        assert access_frequencies(1) == [1.0]

    def test_invalid(self):
        with pytest.raises(ValueError):
            access_frequencies(0)


class TestCumulativeWeights:
    def test_suffix_sums(self):
        assert cumulative_weights([3.0, 2.0, 1.0]) == [6.0, 3.0, 1.0]

    def test_single(self):
        assert cumulative_weights([5.0]) == [5.0]

    def test_weights_dominate_frequencies(self):
        g = access_frequencies(128)
        w = cumulative_weights(g)
        assert all(wi >= gi for wi, gi in zip(w, g))


class TestWeightedFrequencies:
    def test_single_size_histogram_matches_g(self):
        histogram = {32: 10}
        averaged = weighted_frequencies(histogram, max_height=5)
        g = access_frequencies(32)
        assert averaged[: len(g)] == pytest.approx(g)

    def test_empty_histogram_gives_uniform(self):
        assert weighted_frequencies({}, max_height=3) == [1.0] * 4

    def test_mixture_is_convex_combination(self):
        h1 = weighted_frequencies({8: 1}, 3)
        h2 = weighted_frequencies({16: 1}, 3)
        mixed = weighted_frequencies({8: 1, 16: 1}, 3)
        for a, b, m in zip(h1, h2, mixed):
            assert m == pytest.approx((a + b) / 2)

    def test_oversized_ranges_clamped(self):
        capped = weighted_frequencies({1024: 1}, max_height=3)
        direct = weighted_frequencies({8: 1}, max_height=3)
        assert capped == pytest.approx(direct)

    def test_invalid_entries(self):
        with pytest.raises(ValueError):
            weighted_frequencies({0: 1}, 3)
        with pytest.raises(ValueError):
            weighted_frequencies({4: -1}, 3)
        with pytest.raises(ValueError):
            weighted_frequencies({4: 1}, -1)


@given(range_size=st.integers(min_value=1, max_value=1 << 20))
def test_property_g_nonnegative_and_decreasing(range_size):
    g = access_frequencies(range_size)
    assert all(value >= 0 for value in g)
    assert all(a >= b for a, b in zip(g, g[1:]))
