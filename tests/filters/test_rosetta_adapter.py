"""Unit tests for the Rosetta filter-template adapter."""

import pytest

from repro.errors import FilterBuildError
from repro.filters.base import deserialize_filter, serialize_envelope
from repro.filters.rosetta_adapter import RosettaFilter


class TestAdapter:
    def test_populate_and_query(self, small_keys):
        filt = RosettaFilter(key_bits=32, bits_per_key=16, max_range=64)
        filt.populate(small_keys)
        assert all(filt.may_contain(k) for k in small_keys[:200])
        assert filt.may_contain_range(small_keys[0], small_keys[0] + 5)

    def test_double_populate_rejected(self, small_keys):
        filt = RosettaFilter(key_bits=32)
        filt.populate(small_keys)
        with pytest.raises(FilterBuildError):
            filt.populate(small_keys)

    def test_unpopulated_access_rejected(self):
        filt = RosettaFilter(key_bits=32)
        with pytest.raises(FilterBuildError):
            filt.may_contain(1)
        with pytest.raises(FilterBuildError):
            filt.size_in_bits()

    def test_strategy_and_histogram_forwarded(self, small_keys):
        filt = RosettaFilter(
            key_bits=32, bits_per_key=12, strategy="hybrid",
            range_size_histogram={4: 10},
        )
        filt.populate(small_keys)
        # Hybrid resolved to single-level: every upper level is empty.
        assert all(level.is_always_positive for level in filt._rosetta.levels[1:])

    def test_memory_budget(self, small_keys):
        filt = RosettaFilter(key_bits=32, bits_per_key=18)
        filt.populate(small_keys)
        expected = 18 * len(set(small_keys))
        assert filt.size_in_bits() == pytest.approx(expected, rel=0.01)

    def test_tightened_range(self, small_keys):
        filt = RosettaFilter(key_bits=32, bits_per_key=24)
        filt.populate(small_keys)
        key = sorted(small_keys)[10]
        result = filt.tightened_range(max(0, key - 20), key + 20)
        assert result is not None

    def test_probe_count_tracks_core_stats(self, small_keys):
        filt = RosettaFilter(key_bits=32, bits_per_key=12)
        filt.populate(small_keys)
        filt.reset_probe_count()
        filt.may_contain(small_keys[0])
        assert filt.probe_count() >= 1
        filt.reset_probe_count()
        assert filt.probe_count() == 0

    def test_probe_count_before_populate_is_zero(self):
        assert RosettaFilter().probe_count() == 0

    def test_envelope_roundtrip(self, small_keys):
        filt = RosettaFilter(key_bits=32, bits_per_key=12)
        filt.populate(small_keys)
        restored = deserialize_filter(serialize_envelope(filt))
        assert isinstance(restored, RosettaFilter)
        assert restored.key_bits == 32
        for key in small_keys[:100]:
            assert restored.may_contain(key) == filt.may_contain(key)
