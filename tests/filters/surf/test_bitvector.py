"""Unit tests for the rank/select bit vector."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filters.surf.bitvector import RankBitVector


class TestRank:
    def test_rank_prefix_counts(self):
        vector = RankBitVector.from_bits([1, 0, 1, 1, 0, 0, 1])
        expected = [0, 1, 1, 2, 3, 3, 3, 4]
        assert [vector.rank1(i) for i in range(8)] == expected

    def test_rank_zero(self):
        vector = RankBitVector.from_bits([1, 1])
        assert vector.rank1(0) == 0

    def test_rank_beyond_length_clamps(self):
        vector = RankBitVector.from_bits([1, 0, 1])
        assert vector.rank1(100) == 2

    def test_rank_across_word_boundaries(self):
        flags = [i % 3 == 0 for i in range(200)]
        vector = RankBitVector.from_bits(flags)
        running = 0
        for i, flag in enumerate(flags):
            assert vector.rank1(i) == running
            running += flag

    def test_empty_vector(self):
        vector = RankBitVector.from_bits([])
        assert len(vector) == 0
        assert vector.num_ones == 0
        assert vector.rank1(5) == 0


class TestSelect:
    def test_select_positions(self):
        vector = RankBitVector.from_bits([0, 1, 0, 0, 1, 1])
        assert vector.select1(1) == 1
        assert vector.select1(2) == 4
        assert vector.select1(3) == 5

    def test_select_out_of_range(self):
        vector = RankBitVector.from_bits([1, 0])
        with pytest.raises(IndexError):
            vector.select1(0)
        with pytest.raises(IndexError):
            vector.select1(2)

    def test_select_inverts_rank(self):
        rng = random.Random(4)
        flags = [rng.random() < 0.3 for _ in range(500)]
        vector = RankBitVector.from_bits(flags)
        for nth in range(1, vector.num_ones + 1):
            position = vector.select1(nth)
            assert vector.get(position)
            assert vector.rank1(position) == nth - 1

    def test_select_across_many_words(self):
        flags = [True] * 300
        vector = RankBitVector.from_bits(flags)
        assert vector.select1(300) == 299
        assert vector.select1(65) == 64


class TestAccounting:
    def test_size_charges_payload_only(self):
        vector = RankBitVector.from_bits([1] * 128)
        assert vector.size_in_bits() == 128
        assert len(vector.to_bytes()) == 8 + 128 // 8  # no rank directory

    def test_serialization_roundtrip(self):
        rng = random.Random(5)
        flags = [rng.random() < 0.5 for _ in range(333)]
        vector = RankBitVector.from_bits(flags)
        restored = RankBitVector.from_bytes(vector.to_bytes())
        assert len(restored) == len(vector)
        assert restored.num_ones == vector.num_ones
        for i in range(333):
            assert restored.get(i) == vector.get(i)


@settings(max_examples=100)
@given(st.lists(st.booleans(), max_size=400))
def test_property_rank_select_consistency(flags):
    vector = RankBitVector.from_bits(flags)
    assert vector.num_ones == sum(flags)
    assert vector.rank1(len(flags)) == sum(flags)
    for nth in range(1, min(vector.num_ones, 20) + 1):
        position = vector.select1(nth)
        assert flags[position]
        assert sum(flags[:position]) == nth - 1
