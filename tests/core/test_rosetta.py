"""Unit tests for the Rosetta filter: construction, queries, serialization."""

import random

import numpy as np
import pytest

from repro.core.allocation import LevelAllocation, allocate
from repro.core.bloom import BloomFilter, optimal_num_hashes
from repro.core.rosetta import Rosetta
from repro.errors import FilterBuildError, FilterQueryError, SerializationError


@pytest.fixture
def paper_filter(tiny_keys):
    """The Fig. 2/3 running example: keys {3,6,7,8,9,11} in a 4-bit domain."""
    return Rosetta.build(
        tiny_keys, key_bits=4, bits_per_key=64, max_range=16, strategy="uniform"
    )


class TestConstruction:
    def test_build_with_bits_per_key(self, small_keys):
        filt = Rosetta.build(small_keys, key_bits=32, bits_per_key=16)
        assert filt.num_keys == len(set(small_keys))
        assert filt.bits_per_key() == pytest.approx(16, rel=0.01)

    def test_build_with_total_bits(self, small_keys):
        filt = Rosetta.build(small_keys, key_bits=32, total_bits=100_000)
        assert filt.size_in_bits() == pytest.approx(100_000, rel=0.01)

    def test_both_budgets_rejected(self, small_keys):
        with pytest.raises(FilterBuildError):
            Rosetta.build(small_keys, key_bits=32, bits_per_key=10, total_bits=10)

    def test_neither_budget_rejected(self, small_keys):
        with pytest.raises(FilterBuildError):
            Rosetta.build(small_keys, key_bits=32)

    def test_levels_follow_max_range(self, small_keys):
        for max_range, expected_levels in ((1, 1), (2, 2), (64, 7), (100, 7)):
            filt = Rosetta.build(
                small_keys, key_bits=32, bits_per_key=10, max_range=max_range
            )
            assert filt.num_levels == expected_levels

    def test_levels_capped_by_key_bits(self):
        filt = Rosetta.build([0, 1, 2], key_bits=3, bits_per_key=20, max_range=1024)
        assert filt.num_levels == 4  # heights 0..3

    def test_out_of_domain_keys_rejected(self):
        with pytest.raises(FilterBuildError):
            Rosetta.build([16], key_bits=4, bits_per_key=10)
        with pytest.raises(FilterBuildError):
            Rosetta.build([-1], key_bits=4, bits_per_key=10)

    def test_invalid_max_range(self, small_keys):
        with pytest.raises(FilterBuildError):
            Rosetta.build(small_keys, key_bits=32, bits_per_key=10, max_range=0)

    def test_duplicates_collapse(self):
        filt = Rosetta.build([5, 5, 5, 9], key_bits=8, bits_per_key=10)
        assert filt.num_keys == 2

    def test_wide_keys_scalar_path(self):
        keys = [1 << 70, (1 << 70) + 5, (1 << 90) + 1]
        filt = Rosetta.build(keys, key_bits=96, bits_per_key=20, max_range=16)
        for key in keys:
            assert filt.may_contain(key)

    def test_allocation_recorded(self, small_keys):
        filt = Rosetta.build(
            small_keys, key_bits=32, bits_per_key=10, strategy="single"
        )
        assert filt._allocation.strategy == "single"


def _build_with_np_unique(keys, *, key_bits, bits_per_key, max_range, strategy, salt):
    """Algorithm 1 as ``Rosetta.build`` ran it before it trusted its input's
    order: hash-sort-dedupe the keys, then every level's prefixes, from scratch."""
    unique = np.unique(np.fromiter((int(k) for k in keys), dtype=np.uint64))
    allocation = allocate(
        strategy,
        num_keys=len(unique),
        total_bits=int(round(bits_per_key * len(unique))),
        max_height=min(max_range.bit_length() - 1, key_bits),
    )
    filters = []
    for height, num_bits in enumerate(allocation.bits_per_level):
        prefixes = np.unique(unique >> np.uint64(height))
        bloom = BloomFilter(
            num_bits, optimal_num_hashes(num_bits / len(prefixes)), salt=salt
        )
        if not bloom.is_always_positive:
            bloom.add_many_ints(prefixes)
        filters.append(bloom)
    return Rosetta(key_bits, filters, allocation, len(unique))


_RNG = random.Random(0xB17D)
_KEY_SETS = {
    "single-key": (64, [12345]),
    "zero-only": (64, [0]),
    "domain-edges": (64, [0, 1, 2**63, 2**64 - 2, 2**64 - 1]),
    "dense-run": (64, list(range(1000, 1400))),
    "clustered": (64, [base + 4 * i for base in (2**20, 2**40, 2**63) for i in range(48)]),
    "uniform-64": (64, [_RNG.getrandbits(64) for _ in range(1700)]),
    "uniform-32": (32, [_RNG.getrandbits(32) for _ in range(1700)] + [0, 2**32 - 1]),
    "small-domain": (8, list(range(0, 256, 3))),
}


class TestBuildUsesInputOrder:
    """Sorted, shuffled or duplicated: the same bytes as the np.unique build."""

    @pytest.mark.parametrize("strategy", ["variable", "single", "optimized"])
    @pytest.mark.parametrize("salt", [0, 0x5EED])
    @pytest.mark.parametrize("name", sorted(_KEY_SETS))
    def test_bytes_equal_reference(self, name, salt, strategy):
        key_bits, keys = _KEY_SETS[name]
        recipe = dict(
            key_bits=key_bits, bits_per_key=22, max_range=64, strategy=strategy, salt=salt
        )
        expected = _build_with_np_unique(keys, **recipe).to_bytes()
        shuffled = list(keys)
        random.Random(7).shuffle(shuffled)
        orders = {
            "sorted": sorted(set(keys)),  # what an SST hands over: no np.unique
            "sorted-with-duplicates": sorted(keys + keys[::3]),
            "shuffled": shuffled,
            "shuffled-with-duplicates": shuffled + shuffled[::2],
            "descending": sorted(keys, reverse=True),
            "numpy-array": np.array(sorted(set(keys)), dtype=np.uint64),
            "generator": (key for key in shuffled),
        }
        for order, given in orders.items():
            built = Rosetta.build(given, **recipe)
            assert built.to_bytes() == expected, order

    def test_sorted_input_skips_np_unique(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("np.unique called on strictly increasing keys")

        keys = sorted({_RNG.getrandbits(64) for _ in range(500)})
        expected = _build_with_np_unique(
            keys, key_bits=64, bits_per_key=22, max_range=64, strategy="variable", salt=0
        ).to_bytes()
        monkeypatch.setattr(np, "unique", forbidden)
        built = Rosetta.build(keys, key_bits=64, bits_per_key=22, strategy="variable")
        assert built.to_bytes() == expected

    @pytest.mark.parametrize(
        "keys",
        [[5, -1], [-1], [3, 2**64], [1, 2, 2**32], [2**32, 1], [np.int64(-3), 4]],
        ids=["negative-last", "negative", "past-64-bits", "sorted-past-domain",
             "unsorted-past-domain", "negative-numpy-scalar"],
    )
    def test_out_of_domain_still_rejected(self, keys):
        with pytest.raises(FilterBuildError):
            Rosetta.build(keys, key_bits=32, bits_per_key=10)


class TestPointQueries:
    def test_no_false_negatives(self, small_keys):
        filt = Rosetta.build(small_keys, key_bits=32, bits_per_key=14)
        assert all(filt.may_contain(k) for k in small_keys)

    def test_fpr_reasonable(self, small_keys):
        filt = Rosetta.build(small_keys, key_bits=32, bits_per_key=20,
                             strategy="single")
        key_set = set(small_keys)
        rng = random.Random(9)
        trials = 5000
        fp = sum(
            filt.may_contain(k)
            for k in (rng.randrange(1 << 32) for _ in range(trials))
            if k not in key_set
        )
        assert fp / trials < 0.01

    def test_out_of_domain_query_rejected(self, paper_filter):
        with pytest.raises(FilterQueryError):
            paper_filter.may_contain(16)

    def test_empty_filter_rejects_everything(self):
        filt = Rosetta.build([], key_bits=8, bits_per_key=10)
        assert not filt.may_contain(5)
        assert not filt.may_contain_range(0, 255)


class TestRangeQueries:
    def test_paper_example_positive(self, paper_filter):
        # range(8, 12) in the paper: keys 8, 9, 11 are inside.
        assert paper_filter.may_contain_range(8, 12)

    def test_paper_example_negative(self, paper_filter):
        # [4, 5] holds no key from {3,6,7,8,9,11}; with 64 bits/key the
        # filter should prune it.
        assert not paper_filter.may_contain_range(4, 5)

    def test_no_false_negatives_on_ranges(self, small_keys):
        filt = Rosetta.build(small_keys, key_bits=32, bits_per_key=14)
        rng = random.Random(10)
        for key in rng.sample(small_keys, 300):
            low = max(0, key - rng.randrange(0, 32))
            high = min((1 << 32) - 1, key + rng.randrange(0, 32))
            assert filt.may_contain_range(low, high)

    def test_empty_range_fpr(self, small_keys):
        filt = Rosetta.build(
            small_keys, key_bits=32, bits_per_key=22, max_range=64,
            strategy="equilibrium",
        )
        key_set = set(small_keys)
        rng = random.Random(11)
        fp = trials = 0
        while trials < 1500:
            low = rng.randrange((1 << 32) - 64)
            if any(k in key_set for k in range(low, low + 32)):
                continue
            trials += 1
            fp += filt.may_contain_range(low, low + 31)
        assert fp / trials < 0.05

    def test_queries_larger_than_max_range_still_correct(self, small_keys):
        filt = Rosetta.build(
            small_keys, key_bits=32, bits_per_key=14, max_range=8
        )
        key = small_keys[0]
        assert filt.may_contain_range(max(0, key - 500), key + 500)

    def test_range_clamped_to_domain(self, paper_filter):
        # high beyond the domain is clamped, not an error.
        assert paper_filter.may_contain_range(11, 10**9)

    def test_invalid_range_rejected(self, paper_filter):
        with pytest.raises(FilterQueryError):
            paper_filter.may_contain_range(5, 4)

    def test_whole_domain_positive(self, paper_filter):
        assert paper_filter.may_contain_range(0, 15)


class TestTightening:
    def test_tightens_to_occupied_subrange(self, small_keys):
        filt = Rosetta.build(small_keys, key_bits=32, bits_per_key=64,
                             max_range=64, strategy="uniform")
        key = sorted(small_keys)[100]
        low, high = max(0, key - 30), key + 30
        result = filt.tightened_range(low, high)
        assert result is not None
        eff_low, eff_high = result
        assert low <= eff_low <= key <= eff_high + 0  # key inside window
        assert eff_high - eff_low <= high - low

    def test_none_for_empty_range(self, paper_filter):
        assert paper_filter.tightened_range(4, 5) is None

    def test_agrees_with_plain_range_query(self, small_keys):
        filt = Rosetta.build(small_keys, key_bits=32, bits_per_key=18)
        rng = random.Random(12)
        for _ in range(200):
            low = rng.randrange((1 << 32) - 64)
            high = low + rng.randrange(1, 64)
            assert (filt.tightened_range(low, high) is not None) == (
                filt.may_contain_range(low, high)
            )

    def test_exact_single_key(self, paper_filter):
        result = paper_filter.tightened_range(8, 8)
        assert result == (8, 8)


class TestProbeStats:
    def test_probe_counting(self, small_keys):
        filt = Rosetta.build(small_keys, key_bits=32, bits_per_key=14)
        filt.stats.reset()
        filt.may_contain(small_keys[0])
        assert filt.stats.point_queries == 1
        assert filt.stats.bloom_probes == 1

    def test_single_level_probe_cost_linear(self, small_keys):
        filt = Rosetta.build(
            small_keys, key_bits=32, bits_per_key=22, max_range=32,
            strategy="single",
        )
        filt.stats.reset()
        # An empty range far from keys: every key in the range is probed.
        key_set = set(small_keys)
        rng = random.Random(13)
        while True:
            low = rng.randrange((1 << 32) - 32)
            if not any(k in key_set for k in range(low, low + 32)):
                break
        filt.may_contain_range(low, low + 31)
        assert filt.stats.bloom_probes >= 32 * 0.9  # mostly negative probes

    def test_zero_bit_levels_not_counted(self, small_keys):
        filt = Rosetta.build(
            small_keys, key_bits=32, bits_per_key=22, max_range=64,
            strategy="single",
        )
        # All levels above the leaf are empty; only leaf probes count.
        filt.stats.reset()
        filt.may_contain_range(0, 63)
        leaf_probes = filt.stats.bloom_probes
        assert leaf_probes <= 64


class TestSerialization:
    def test_roundtrip_preserves_answers(self, small_keys):
        filt = Rosetta.build(small_keys, key_bits=32, bits_per_key=12)
        restored = Rosetta.from_bytes(filt.to_bytes())
        assert restored.key_bits == filt.key_bits
        assert restored.num_levels == filt.num_levels
        assert restored.num_keys == filt.num_keys
        rng = random.Random(14)
        for _ in range(300):
            key = rng.randrange(1 << 32)
            assert restored.may_contain(key) == filt.may_contain(key)
        for _ in range(100):
            low = rng.randrange((1 << 32) - 64)
            high = low + rng.randrange(0, 64)
            assert restored.may_contain_range(low, high) == filt.may_contain_range(
                low, high
            )

    def test_bad_magic(self):
        with pytest.raises(SerializationError):
            Rosetta.from_bytes(b"NOTROSET" + b"\x00" * 16)

    def test_truncated_payload(self, small_keys):
        payload = Rosetta.build(small_keys, key_bits=32, bits_per_key=10).to_bytes()
        with pytest.raises(SerializationError):
            Rosetta.from_bytes(payload[: len(payload) // 2])


class TestInternalValidation:
    def test_constructor_guards(self):
        bloom = BloomFilter(64, 1)
        alloc = LevelAllocation(bits_per_level=(64,), strategy="test")
        with pytest.raises(FilterBuildError):
            Rosetta(0, [bloom], alloc, 1)
        with pytest.raises(FilterBuildError):
            Rosetta(4, [], alloc, 1)
        with pytest.raises(FilterBuildError):
            Rosetta(2, [bloom] * 5, alloc, 1)  # more levels than the domain

    def test_repr_mentions_strategy(self, small_keys):
        filt = Rosetta.build(
            small_keys, key_bits=32, bits_per_key=10, strategy="variable"
        )
        assert "variable" in repr(filt)
