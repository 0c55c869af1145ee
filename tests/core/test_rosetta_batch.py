"""Tests for Rosetta's grouped point lookups (``may_contain_each``)."""

import numpy as np
import pytest

from repro.core.rosetta import Rosetta
from repro.errors import FilterQueryError


@pytest.fixture
def filt(small_keys):
    return Rosetta.build(small_keys, key_bits=32, bits_per_key=14, max_range=32)


class TestBatchPointLookups:
    def test_matches_scalar(self, filt, rng):
        probes = [rng.randrange(1 << 32) for _ in range(2000)]
        batch = filt.may_contain_each(probes)
        for probe, verdict in zip(probes, batch):
            assert verdict == filt.may_contain(probe)

    def test_no_false_negatives(self, filt, small_keys):
        assert all(filt.may_contain_each(small_keys))

    def test_empty_batch(self, filt):
        assert filt.may_contain_each([]) == []

    def test_empty_filter(self):
        filt = Rosetta.build([], key_bits=16, bits_per_key=10)
        assert filt.may_contain_each([1, 2, 3]) == [False] * 3

    def test_stats_counted(self, filt):
        filt.stats.reset()
        filt.may_contain_each(np.arange(100, dtype=np.uint64))
        assert filt.stats.point_queries == 100
        assert filt.stats.bloom_probes == 100

    def test_domain_validation(self, filt):
        with pytest.raises(FilterQueryError):
            filt.may_contain_each([1 << 33])

    def test_wide_domain_takes_the_per_key_loop(self):
        filt = Rosetta.build([1 << 70], key_bits=96, bits_per_key=12)
        probes = [1 << 70, 1, (1 << 96) - 1] * 5  # past the vector crossover
        assert filt.may_contain_each(probes) == [
            filt.may_contain(probe) for probe in probes
        ]
        with pytest.raises(FilterQueryError):
            filt.may_contain_each([1 << 96])

    def test_throughput_advantage(self, filt, rng):
        """The batch path must actually be faster than the scalar loop."""
        import time

        probes = np.asarray(
            [rng.randrange(1 << 32) for _ in range(5000)], dtype=np.uint64
        )
        start = time.perf_counter()
        filt.may_contain_each(probes)
        batch_time = time.perf_counter() - start
        start = time.perf_counter()
        for probe in probes[:500]:
            filt.may_contain(int(probe))
        scalar_time = (time.perf_counter() - start) * 10  # extrapolate
        assert batch_time < scalar_time

