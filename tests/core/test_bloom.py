"""Unit tests for the Bloom filter: no false negatives, FPR, sizing math."""

import math
import random

import numpy as np
import pytest

from repro.core.bloom import (
    BloomFilter,
    bits_for_fpr,
    fpr_for_bits,
    optimal_num_hashes,
)
from repro.errors import FilterBuildError, SerializationError


class TestSizingMath:
    def test_optimal_hashes_standard_points(self):
        assert optimal_num_hashes(10) == 7  # 10 ln2 = 6.93
        assert optimal_num_hashes(14.4) == 10
        assert optimal_num_hashes(1) == 1
        assert optimal_num_hashes(0) == 1

    def test_bits_for_fpr_matches_formula(self):
        n, p = 1000, 0.01
        expected = math.ceil(-n * math.log(p) / math.log(2) ** 2)
        assert bits_for_fpr(n, p) == expected

    def test_bits_for_fpr_edge_cases(self):
        assert bits_for_fpr(0, 0.5) == 0
        assert bits_for_fpr(100, 1.0) == 0
        with pytest.raises(ValueError):
            bits_for_fpr(100, 0.0)
        with pytest.raises(ValueError):
            bits_for_fpr(-1, 0.5)

    def test_fpr_for_bits_inverts_bits_for_fpr(self):
        n = 5000
        for target in (0.1, 0.01, 0.001):
            bits = bits_for_fpr(n, target)
            assert fpr_for_bits(n, bits) == pytest.approx(target, rel=0.02)

    def test_fpr_for_bits_degenerate(self):
        assert fpr_for_bits(0, 100) == 0.0
        assert fpr_for_bits(100, 0) == 1.0


class TestMembership:
    def test_no_false_negatives_ints(self):
        keys = random.Random(1).sample(range(10**9), 5000)
        bf = BloomFilter.from_keys_and_bits(keys, num_bits=50000)
        assert all(bf.may_contain(k) for k in keys)

    def test_no_false_negatives_bytes(self):
        keys = [f"key-{i}".encode() for i in range(1000)]
        bf = BloomFilter.from_keys_and_bits(keys, num_bits=10000)
        assert all(bf.may_contain(k) for k in keys)

    def test_empirical_fpr_close_to_theory(self):
        rng = random.Random(2)
        keys = rng.sample(range(10**12), 10000)
        bits = 10 * len(keys)
        bf = BloomFilter.from_keys_and_bits(keys, num_bits=bits)
        key_set = set(keys)
        trials = 20000
        fp = sum(
            bf.may_contain(k)
            for k in (rng.randrange(10**12) for _ in range(trials))
            if k not in key_set
        )
        measured = fp / trials
        theoretical = fpr_for_bits(len(keys), bits)  # ~0.0082
        assert measured == pytest.approx(theoretical, rel=0.5)

    def test_contains_dunder(self):
        bf = BloomFilter.from_keys_and_bits([1, 2, 3], num_bits=100)
        assert 2 in bf

    def test_rejects_unknown_types(self):
        bf = BloomFilter(100, 2)
        with pytest.raises(TypeError):
            bf.add(3.14)
        with pytest.raises(TypeError):
            bf.may_contain(["list"])

    def test_int_and_bytes_are_distinct_namespaces(self):
        bf = BloomFilter(10000, 4)
        bf.add(65)
        # The byte b"A" (ASCII 65) should not automatically be present.
        # (Not guaranteed absent — it's probabilistic — but hashes differ.)
        h_int = bf._base_hashes(65)
        h_bytes = bf._base_hashes(b"A")
        assert h_int != h_bytes


class TestZeroBitFilter:
    def test_always_positive(self):
        bf = BloomFilter(0, 1)
        assert bf.is_always_positive
        assert bf.may_contain(12345)
        bf.add(1)  # no-op, no crash
        assert bf.may_contain(99999)

    def test_vectorized_always_positive(self):
        bf = BloomFilter(0, 1)
        result = bf.contains_batch(np.asarray([1, 2, 3], dtype=np.uint64))
        assert result == [True, True, True]

    def test_expected_fpr_is_one(self):
        assert BloomFilter(0, 1).expected_fpr() == 1.0


class TestVectorizedPaths:
    def test_bulk_add_matches_scalar_add(self):
        keys = list(range(0, 5000, 7))
        scalar = BloomFilter(4096, 5)
        bulk = BloomFilter(4096, 5)
        for key in keys:
            scalar.add(key)
        bulk.add_many_ints(np.asarray(keys, dtype=np.uint64))
        probes = list(range(10000))
        for p in probes:
            assert scalar.may_contain(p) == bulk.may_contain(p)

    def test_bulk_probe_matches_scalar_probe(self):
        keys = list(range(100))
        bf = BloomFilter.from_keys_and_bits(keys, num_bits=2048)
        probes = np.arange(500, dtype=np.uint64)
        bulk = bf.contains_batch(probes)
        for i, p in enumerate(probes):
            assert bulk[i] == bf.may_contain(int(p))

    def test_contains_batch_matches_scalar_probe(self):
        keys = list(range(0, 300, 3))
        bf = BloomFilter.from_keys_and_bits(keys, num_bits=4096)
        probes = np.arange(400, dtype=np.uint64)
        verdicts = bf.contains_batch(probes)
        for i, p in enumerate(probes):
            assert verdicts[i] == bf.may_contain(int(p))

    def test_contains_batch_duplicates_and_empty(self):
        bf = BloomFilter.from_keys_and_bits(range(50), num_bits=2048)
        dup = np.asarray([7, 7, 7, 9999, 7, 9999], dtype=np.uint64)
        verdicts = bf.contains_batch(dup)
        assert list(verdicts) == [bf.may_contain(int(v)) for v in dup]
        assert len(bf.contains_batch(np.zeros(0, dtype=np.uint64))) == 0

    def test_contains_batch_always_positive_filter(self):
        bf = BloomFilter(0, 1)  # zero bits -> degenerate always-positive
        assert bf.is_always_positive
        assert bf.contains_batch(np.arange(5, dtype=np.uint64)) == [True] * 5

    def test_bulk_ops_on_64bit_extremes(self):
        keys = np.asarray([0, 2**63, 2**64 - 1], dtype=np.uint64)
        bf = BloomFilter(1024, 3)
        bf.add_many_ints(keys)
        assert bf.may_contain(0)
        assert bf.may_contain(2**63)
        assert bf.may_contain(2**64 - 1)


class TestConstructionAndSerialization:
    def test_invalid_num_hashes(self):
        with pytest.raises(FilterBuildError):
            BloomFilter(100, 0)

    def test_roundtrip(self):
        bf = BloomFilter.from_keys_and_bits(range(100), num_bits=2000)
        restored = BloomFilter.from_bytes(bf.to_bytes())
        assert restored.to_bytes() == bf.to_bytes()
        assert all(restored.may_contain(k) for k in range(100))

    def test_bad_magic_rejected(self):
        with pytest.raises(SerializationError):
            BloomFilter.from_bytes(b"XXXX" + b"\x00" * 32)

    def test_expected_fpr_tracks_fill(self):
        bf = BloomFilter(1000, 3)
        assert bf.expected_fpr() == 0.0
        for key in range(200):
            bf.add(key)
        assert 0.0 < bf.expected_fpr() < 1.0
