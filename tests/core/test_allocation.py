"""Unit tests for memory allocation across Rosetta levels (§2.3-2.4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import (
    HYBRID_SMALL_RANGE_CUTOFF,
    STRATEGIES,
    allocate,
)
from repro.core.bloom import fpr_for_bits
from repro.errors import AllocationError

N = 10_000
M = 22 * N


class TestCommonInvariants:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_budget_respected(self, strategy):
        alloc = allocate(strategy, num_keys=N, total_bits=M, max_height=6)
        assert len(alloc.bits_per_level) == 7
        assert all(bits >= 0 for bits in alloc.bits_per_level)
        assert sum(alloc.bits_per_level) == pytest.approx(M, rel=0.001)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_zero_budget(self, strategy):
        alloc = allocate(strategy, num_keys=N, total_bits=0, max_height=4)
        assert sum(alloc.bits_per_level) == 0

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_zero_keys(self, strategy):
        alloc = allocate(strategy, num_keys=0, total_bits=M, max_height=4)
        assert sum(alloc.bits_per_level) == 0

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_single_level_tree(self, strategy):
        alloc = allocate(strategy, num_keys=N, total_bits=M, max_height=0)
        assert len(alloc.bits_per_level) == 1
        assert alloc.bits_per_level[0] == pytest.approx(M, rel=0.001)

    def test_unknown_strategy(self):
        with pytest.raises(AllocationError):
            allocate("nope", num_keys=N, total_bits=M, max_height=3)

    def test_invalid_arguments(self):
        with pytest.raises(AllocationError):
            allocate("uniform", num_keys=-1, total_bits=M, max_height=3)
        with pytest.raises(AllocationError):
            allocate("uniform", num_keys=N, total_bits=-1, max_height=3)
        with pytest.raises(AllocationError):
            allocate("uniform", num_keys=N, total_bits=M, max_height=-1)


class TestUniform:
    def test_equal_split(self):
        alloc = allocate("uniform", num_keys=N, total_bits=70_000, max_height=6)
        assert max(alloc.bits_per_level) - min(alloc.bits_per_level) <= 7


class TestSingle:
    def test_everything_at_leaf(self):
        alloc = allocate("single", num_keys=N, total_bits=M, max_height=6)
        assert alloc.bits_per_level[0] == M
        assert all(bits == 0 for bits in alloc.bits_per_level[1:])


class TestEquilibrium:
    def test_upper_levels_equal(self):
        alloc = allocate("equilibrium", num_keys=N, total_bits=M, max_height=6)
        upper = alloc.bits_per_level[1:]
        assert max(upper) - min(upper) <= 1
        assert alloc.bits_per_level[0] > upper[0]

    def test_stationary_fpr_identity(self):
        """phi*(2 - eps) ~= 1 for the solved allocation (§2.3)."""
        alloc = allocate("equilibrium", num_keys=N, total_bits=M, max_height=6)
        eps = fpr_for_bits(N, alloc.bits_per_level[0])
        phi = fpr_for_bits(N, alloc.bits_per_level[1])
        # The exact identity holds pre-rounding/rescaling; allow slack.
        assert phi * (2 - eps) == pytest.approx(1.0, rel=0.15)

    def test_large_budget_gives_tiny_leaf_fpr(self):
        alloc = allocate("equilibrium", num_keys=N, total_bits=64 * N, max_height=4)
        assert fpr_for_bits(N, alloc.bits_per_level[0]) < 1e-6


class TestOptimized:
    def test_leaf_gets_most(self):
        alloc = allocate("optimized", num_keys=N, total_bits=M, max_height=6)
        assert alloc.bits_per_level[0] == max(alloc.bits_per_level)

    def test_monotone_in_height(self):
        alloc = allocate("optimized", num_keys=N, total_bits=M, max_height=6)
        bits = alloc.bits_per_level
        assert all(a >= b for a, b in zip(bits, bits[1:]))

    def test_tight_budget_zeroes_top_levels(self):
        alloc = allocate("optimized", num_keys=N, total_bits=4 * N, max_height=8)
        assert alloc.bits_per_level[-1] == 0
        assert alloc.bits_per_level[0] > 0

    def test_histogram_shifts_allocation(self):
        small = allocate(
            "optimized", num_keys=N, total_bits=M, max_height=6,
            range_size_histogram={2: 100},
        )
        large = allocate(
            "optimized", num_keys=N, total_bits=M, max_height=6,
            range_size_histogram={64: 100},
        )
        # A small-range workload never probes high levels: they get nothing.
        assert small.bits_per_level[0] > large.bits_per_level[0]
        assert small.bits_per_level[6] == 0


class TestVariable:
    def test_pushes_bits_below_optimized(self):
        optimized = allocate("optimized", num_keys=N, total_bits=M, max_height=6)
        variable = allocate("variable", num_keys=N, total_bits=M, max_height=6)
        assert variable.bits_per_level[0] >= optimized.bits_per_level[0]
        assert variable.bits_per_level[-1] <= optimized.bits_per_level[-1]

    def test_can_empty_upper_levels(self):
        alloc = allocate("variable", num_keys=N, total_bits=6 * N, max_height=8)
        assert alloc.bits_per_level[-1] == 0


class TestHybrid:
    def test_small_ranges_resolve_to_single(self):
        alloc = allocate(
            "hybrid", num_keys=N, total_bits=M, max_height=6,
            range_size_histogram={8: 90, 64: 10},
        )
        assert alloc.strategy == "single"

    def test_large_ranges_resolve_to_variable(self):
        alloc = allocate(
            "hybrid", num_keys=N, total_bits=M, max_height=6,
            range_size_histogram={64: 90, 8: 10},
        )
        assert alloc.strategy == "variable"

    def test_cutoff_boundary(self):
        at_cutoff = allocate(
            "hybrid", num_keys=N, total_bits=M, max_height=6,
            range_size_histogram={HYBRID_SMALL_RANGE_CUTOFF: 1},
        )
        above_cutoff = allocate(
            "hybrid", num_keys=N, total_bits=M, max_height=6,
            range_size_histogram={HYBRID_SMALL_RANGE_CUTOFF + 1: 1},
        )
        assert at_cutoff.strategy == "single"
        assert above_cutoff.strategy == "variable"

    def test_no_histogram_defaults_to_variable(self):
        alloc = allocate("hybrid", num_keys=N, total_bits=M, max_height=6)
        assert alloc.strategy == "variable"


@settings(max_examples=60)
@given(
    strategy=st.sampled_from(STRATEGIES),
    num_keys=st.integers(min_value=1, max_value=100_000),
    bits_per_key=st.floats(min_value=0.5, max_value=64),
    max_height=st.integers(min_value=0, max_value=10),
)
def test_property_allocation_feasible(strategy, num_keys, bits_per_key, max_height):
    """Any strategy: non-negative levels summing (almost) to the budget."""
    total_bits = int(bits_per_key * num_keys)
    alloc = allocate(
        strategy, num_keys=num_keys, total_bits=total_bits, max_height=max_height
    )
    assert len(alloc.bits_per_level) == max_height + 1
    assert all(bits >= 0 for bits in alloc.bits_per_level)
    assert abs(sum(alloc.bits_per_level) - total_bits) <= max(8, 0.01 * total_bits)
