"""Unit tests for dyadic decomposition, including hypothesis properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dyadic import DyadicInterval, count_intervals, decompose


class TestDyadicInterval:
    def test_bounds(self):
        block = DyadicInterval(prefix=2, height=3)
        assert block.low() == 16
        assert block.high() == 23
        assert block.size == 8

    def test_leaf_block(self):
        block = DyadicInterval(prefix=42, height=0)
        assert block.low() == block.high() == 42
        assert block.size == 1


class TestDecompose:
    def test_paper_example(self):
        # range(8, 12) -> [8, 11] (prefix 10*, height 2) and [12, 12]
        # (the Fig. 3 example in a 4-bit domain).
        blocks = list(decompose(8, 12, max_height=4))
        assert blocks == [
            DyadicInterval(prefix=2, height=2),
            DyadicInterval(prefix=12, height=0),
        ]

    def test_single_point(self):
        assert list(decompose(5, 5, 10)) == [DyadicInterval(5, 0)]

    def test_aligned_power_of_two(self):
        assert list(decompose(16, 31, 10)) == [DyadicInterval(1, 4)]

    def test_fully_misaligned(self):
        blocks = list(decompose(1, 14, 10))
        # [1] [2,3] [4,7] [8,11] [12,13] [14]
        assert [b.size for b in blocks] == [1, 2, 4, 4, 2, 1]

    def test_covers_exactly(self):
        blocks = list(decompose(100, 227, 10))
        covered = []
        for block in blocks:
            covered.extend(range(block.low(), block.high() + 1))
        assert covered == list(range(100, 228))

    def test_max_height_cap(self):
        blocks = list(decompose(0, 63, max_height=2))
        assert all(b.height <= 2 for b in blocks)
        assert sum(b.size for b in blocks) == 64

    def test_height_zero_cap_gives_single_points(self):
        blocks = list(decompose(10, 14, max_height=0))
        assert len(blocks) == 5
        assert all(b.height == 0 for b in blocks)

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            list(decompose(5, 4, 3))
        with pytest.raises(ValueError):
            list(decompose(-1, 4, 3))
        with pytest.raises(ValueError):
            list(decompose(0, 4, -1))

    def test_zero_start(self):
        blocks = list(decompose(0, 6, 10))
        assert [b.size for b in blocks] == [4, 2, 1]


@settings(max_examples=300)
@given(
    low=st.integers(min_value=0, max_value=2**32),
    size=st.integers(min_value=1, max_value=4096),
    cap=st.integers(min_value=0, max_value=16),
)
def test_property_partition(low, size, cap):
    """Blocks are non-overlapping, ordered, within cap, and cover exactly."""
    high = low + size - 1
    blocks = list(decompose(low, high, cap))
    cursor = low
    for block in blocks:
        assert block.height <= cap
        assert block.low() == cursor  # contiguous, ordered, no overlap
        cursor = block.high() + 1
    assert cursor == high + 1
    assert count_intervals(low, high, cap) == len(blocks)


def test_count_intervals_small_domain_and_wide_edges():
    """The closed-form count equals the walk's, exhaustively and at 2^64."""
    for cap in range(6):
        for low in range(40):
            for high in range(low, 80):
                want = sum(1 for _ in decompose(low, high, cap))
                assert count_intervals(low, high, cap) == want
    top = (1 << 64) - 1
    assert count_intervals(0, top, 64) == 1
    assert count_intervals(0, top, 6) == 1 << 58
    assert count_intervals(1, top, 64) == 64
    assert count_intervals(top, top, 6) == 1
    assert count_intervals((1 << 95) + 1, (1 << 95) + 16, 4) == 5


@settings(max_examples=200)
@given(
    low=st.integers(min_value=0, max_value=2**40),
    size=st.integers(min_value=1, max_value=2**16),
)
def test_property_block_count_bound(low, size):
    """At most 2*ceil(log2(size)) maximal blocks when the cap allows."""
    blocks = list(decompose(low, low + size - 1, max_height=64))
    assert len(blocks) <= max(1, 2 * (size - 1).bit_length())


@settings(max_examples=200)
@given(
    low=st.integers(min_value=0, max_value=2**20),
    size=st.integers(min_value=1, max_value=512),
)
def test_property_prefix_identity(low, size):
    """Every block's prefix shifted back reproduces its low bound."""
    for block in decompose(low, low + size - 1, max_height=32):
        assert block.prefix << block.height == block.low()
