"""Unit tests for distributions and dataset generation."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.distributions import normal_keys, sample_distinct, uniform_keys
from repro.workloads.keygen import generate_dataset, synthesize_value


class TestUniform:
    def test_deterministic_given_seed(self):
        a = uniform_keys(100, 32, seed=7)
        b = uniform_keys(100, 32, seed=7)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            uniform_keys(100, 32, seed=1), uniform_keys(100, 32, seed=2)
        )

    def test_in_domain(self):
        keys = uniform_keys(10_000, 20, seed=3)
        assert int(keys.max()) < (1 << 20)

    def test_covers_domain_roughly(self):
        keys = uniform_keys(10_000, 16, seed=4)
        # Quartile occupancy within 2x of each other.
        counts, _ = np.histogram(keys, bins=4, range=(0, 1 << 16))
        assert counts.max() < 2 * counts.min()

    def test_invalid_args(self):
        with pytest.raises(WorkloadError):
            uniform_keys(-1, 32)
        with pytest.raises(WorkloadError):
            uniform_keys(10, 0)


class TestNormal:
    def test_clusters_around_mean(self):
        keys = normal_keys(10_000, 32, seed=5, mean_fraction=0.5,
                           std_fraction=0.05)
        mid = 1 << 31
        within = np.abs(keys.astype(np.float64) - mid) < (1 << 32) * 0.15
        assert within.mean() > 0.95

    def test_clamped_to_domain(self):
        keys = normal_keys(10_000, 16, seed=6, mean_fraction=0.0,
                           std_fraction=0.5)
        assert int(keys.max()) < (1 << 16)

    def test_invalid_std(self):
        with pytest.raises(WorkloadError):
            normal_keys(10, 16, std_fraction=0.0)


class TestSampleDistinct:
    def test_exact_count_distinct_sorted(self):
        keys = sample_distinct(5000, 32, seed=9)
        assert len(keys) == 5000
        assert len(np.unique(keys)) == 5000
        assert np.array_equal(keys, np.sort(keys))

    def test_domain_too_small_rejected(self):
        with pytest.raises(WorkloadError):
            sample_distinct(200, 8)


class TestDataset:
    def test_uniform_dataset(self):
        dataset = generate_dataset(1000, key_bits=32, seed=10)
        assert len(dataset) == 1000
        assert dataset.distribution == "uniform"

    def test_normal_dataset(self):
        dataset = generate_dataset(1000, key_bits=32, distribution="normal",
                                   seed=11)
        assert len(dataset) == 1000
        assert len(np.unique(dataset.keys)) == 1000

    def test_unknown_distribution(self):
        with pytest.raises(WorkloadError):
            generate_dataset(10, distribution="pareto")

    def test_value_synthesis_verifiable(self):
        value = synthesize_value(12345, 512)
        assert len(value) == 512
        assert int.from_bytes(value[:8], "big") == 12345

    def test_value_too_small_rejected(self):
        with pytest.raises(WorkloadError):
            synthesize_value(1, 4)
