"""Unit tests for the point-filter baselines: Bloom, fence pointers."""

import random

import pytest

from repro.errors import FilterBuildError, FilterQueryError
from repro.filters.bloom_point import BloomPointFilter
from repro.filters.fence import FencePointerFilter


@pytest.fixture
def keys(rng):
    return rng.sample(range(1 << 32), 3000)


class TestBloomPointFilter:
    def test_no_false_negatives(self, keys):
        filt = BloomPointFilter(key_bits=32, bits_per_key=10)
        filt.populate(keys)
        assert all(filt.may_contain(k) for k in keys)

    def test_point_fpr(self, keys, rng):
        filt = BloomPointFilter(key_bits=32, bits_per_key=10)
        filt.populate(keys)
        key_set = set(keys)
        fp = sum(
            filt.may_contain(k)
            for k in (rng.randrange(1 << 32) for _ in range(5000))
            if k not in key_set
        )
        assert fp / 5000 < 0.03  # theory ~0.0082

    def test_ranges_always_pass(self, keys):
        filt = BloomPointFilter(key_bits=32, bits_per_key=10)
        filt.populate(keys)
        assert filt.may_contain_range(0, 10)

    def test_size_one_range_is_point_probe(self, keys):
        filt = BloomPointFilter(key_bits=32, bits_per_key=12)
        filt.populate(keys)
        assert filt.may_contain_range(keys[0], keys[0])

    def test_invalid_range(self, keys):
        filt = BloomPointFilter(key_bits=32)
        filt.populate(keys)
        with pytest.raises(FilterQueryError):
            filt.may_contain_range(5, 4)

    def test_double_populate_rejected(self, keys):
        filt = BloomPointFilter(key_bits=32)
        filt.populate(keys)
        with pytest.raises(FilterBuildError):
            filt.populate(keys)

    def test_query_before_populate_rejected(self):
        with pytest.raises(FilterBuildError):
            BloomPointFilter().may_contain(1)

    def test_serialization_roundtrip(self, keys):
        filt = BloomPointFilter(key_bits=32, bits_per_key=10)
        filt.populate(keys)
        restored = BloomPointFilter.deserialize(filt.serialize())
        assert restored.key_bits == 32
        assert all(restored.may_contain(k) for k in keys[:200])

    def test_memory_budget(self, keys):
        filt = BloomPointFilter(key_bits=32, bits_per_key=10)
        filt.populate(keys)
        assert filt.size_in_bits() == pytest.approx(10 * len(set(keys)), rel=0.01)

    def test_probe_counter(self, keys):
        filt = BloomPointFilter(key_bits=32)
        filt.populate(keys)
        filt.may_contain(keys[0])
        filt.may_contain(keys[1])
        assert filt.probe_count() == 2
        filt.reset_probe_count()
        assert filt.probe_count() == 0


class TestFencePointerFilter:
    def test_stored_keys_pass(self, keys):
        filt = FencePointerFilter(key_bits=32, keys_per_page=64)
        filt.populate(keys)
        assert all(filt.may_contain(k) for k in keys)

    def test_out_of_span_rejected(self, keys):
        filt = FencePointerFilter(key_bits=32, keys_per_page=64)
        filt.populate(keys)
        assert not filt.may_contain_range(0, min(keys) - 1) if min(keys) > 0 else True
        top = max(keys)
        if top < (1 << 32) - 2:
            assert not filt.may_contain_range(top + 1, (1 << 32) - 1)

    def test_gap_between_pages_rejected(self):
        # Two pages of 4 keys with a large gap between them.
        filt = FencePointerFilter(key_bits=32, keys_per_page=4)
        filt.populate([1, 2, 3, 4, 1000, 1001, 1002, 1003])
        assert not filt.may_contain_range(10, 900)
        assert filt.may_contain_range(3, 5)
        assert filt.may_contain_range(999, 1000)

    def test_in_page_gap_not_detectable(self):
        # Within one page min/max cannot prune interior gaps.
        filt = FencePointerFilter(key_bits=32, keys_per_page=64)
        filt.populate([10, 1000])
        assert filt.may_contain_range(400, 500)

    def test_empty_filter(self):
        filt = FencePointerFilter(key_bits=32)
        filt.populate([])
        assert not filt.may_contain_range(0, 100)

    def test_serialization_roundtrip(self, keys):
        filt = FencePointerFilter(key_bits=32, keys_per_page=32)
        filt.populate(keys)
        restored = FencePointerFilter.deserialize(filt.serialize())
        assert restored.keys_per_page == 32
        for key in keys[:100]:
            assert restored.may_contain(key) == filt.may_contain(key)

    def test_memory_is_two_keys_per_page(self, keys):
        filt = FencePointerFilter(key_bits=32, keys_per_page=100)
        filt.populate(keys)
        pages = (len(set(keys)) + 99) // 100
        assert filt.size_in_bits() == 2 * 32 * pages

    def test_invalid_page_size(self):
        with pytest.raises(FilterBuildError):
            FencePointerFilter(keys_per_page=0)
