"""Unit tests for the §3 analytical models."""

import random

import pytest

from repro.core import analysis
from repro.core.bloom import fpr_for_bits
from repro.core.rosetta import Rosetta


class TestMemoryBounds:
    def test_rosetta_bound_formula(self):
        # 1.44 * n * log2(R / eps)
        value = analysis.rosetta_memory_bound_bits(1000, 64, 0.01)
        assert value == pytest.approx(1.4427 * 1000 * 12.644, rel=0.01)

    def test_goswami_below_rosetta(self):
        for fpr in (0.1, 0.01, 0.001):
            lower = analysis.goswami_lower_bound_bits(10_000, 64, fpr)
            achieved = analysis.rosetta_memory_bound_bits(10_000, 64, fpr)
            assert lower < achieved
            # "Within a constant factor": the ratio stays below ~2.
            assert achieved / max(lower, 1) < 2.5

    def test_zero_keys(self):
        assert analysis.goswami_lower_bound_bits(0, 64, 0.1) == 0.0
        assert analysis.rosetta_memory_bound_bits(0, 64, 0.1) == 0.0

    def test_equilibrium_filter_respects_bound(self):
        keys = random.Random(3).sample(range(1 << 32), 5000)
        filt = Rosetta.build(
            keys, key_bits=32, bits_per_key=24, max_range=64,
            strategy="equilibrium",
        )
        eps = fpr_for_bits(len(keys), filt.memory_breakdown()[0])
        bound = analysis.rosetta_memory_bound_bits(len(keys), 64, eps)
        # Actual memory should be within ~35% of the 1.44 bound.
        assert filt.size_in_bits() <= bound * 1.35

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            analysis.goswami_lower_bound_bits(10, 64, 0.0)
        with pytest.raises(ValueError):
            analysis.rosetta_memory_bound_bits(10, 0, 0.1)
        with pytest.raises(ValueError):
            analysis.rosetta_memory_bound_bits(-1, 64, 0.1)


class TestCompoundFpr:
    def test_leaf_only(self):
        assert analysis.compound_subtree_fpr([0.1]) == pytest.approx(0.1)

    def test_equilibrium_is_stationary(self):
        """phi = 1/(2 - eps) keeps the subtree FPR at eps (the §2.3 identity)."""
        eps = 0.02
        phi = 1.0 / (2.0 - eps)
        for height in (1, 3, 7):
            fprs = [eps] + [phi] * height
            assert analysis.compound_subtree_fpr(fprs) == pytest.approx(
                eps, rel=1e-9
            )

    def test_compounding_shrinks_fpr(self):
        flat = [0.2] * 6
        assert analysis.compound_subtree_fpr(flat) < 0.2 ** 2

    def test_always_positive_levels(self):
        # Levels at FPR ~1 pass through without changing much.
        assert analysis.compound_subtree_fpr([0.1, 0.999999]) == pytest.approx(
            0.19, rel=0.05
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            analysis.compound_subtree_fpr([])

    def test_invalid_fpr(self):
        with pytest.raises(ValueError):
            analysis.compound_subtree_fpr([1.5])


class TestPredictRangeFpr:
    def test_monotone_in_range_size(self):
        fprs = [0.05] * 7
        assert analysis.predict_range_fpr(fprs, 64) >= analysis.predict_range_fpr(
            fprs, 4
        )

    def test_single_point(self):
        fprs = [0.03, 0.5, 0.5]
        assert analysis.predict_range_fpr(fprs, 1) == pytest.approx(0.03)

    def test_matches_measurement(self):
        """Analytical prediction within 2x of the measured FPR."""
        rng = random.Random(5)
        keys = rng.sample(range(1 << 32), 8000)
        filt = Rosetta.build(
            keys, key_bits=32, bits_per_key=14, max_range=32,
            strategy="uniform",
        )
        level_fprs = [
            min(fpr_for_bits(len(keys), bits), 0.999999)
            for bits in filt.memory_breakdown()
        ]
        key_set = set(keys)
        fp = trials = 0
        while trials < 1000:
            low = rng.randrange((1 << 32) - 16)
            if any(k in key_set for k in range(low, low + 16)):
                continue
            trials += 1
            fp += filt.may_contain_range(low, low + 15)
        measured = fp / trials
        predicted = analysis.predict_range_fpr(level_fprs, 16)
        assert predicted == pytest.approx(measured, rel=1.0, abs=0.02)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            analysis.predict_range_fpr([0.1], 0)
        with pytest.raises(ValueError):
            analysis.predict_range_fpr([0.1], 4, alignment=-1)


class TestProbeCostModel:
    def test_distribution_sums_to_one(self):
        total = sum(analysis.catalan_probe_distribution(0.3, max_terms=500))
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_expected_probes_grow_with_fpr(self):
        assert analysis.expected_probes_per_interval(
            0.45
        ) > analysis.expected_probes_per_interval(0.1)

    def test_low_fpr_expected_probes_near_one(self):
        assert analysis.expected_probes_per_interval(0.001) == pytest.approx(
            1.0, rel=0.02
        )

    def test_range_cost_scales_with_log_range(self):
        small = analysis.expected_range_probe_cost(0.2, 4)
        large = analysis.expected_range_probe_cost(0.2, 256)
        assert large == pytest.approx(small * 4, rel=0.01)  # log ratio 8/2

    def test_bound_dominates_measurement(self):
        """Expected-probe model upper-bounds measured probes on empty ranges."""
        rng = random.Random(6)
        keys = rng.sample(range(1 << 32), 5000)
        filt = Rosetta.build(
            keys, key_bits=32, bits_per_key=10, max_range=64,
            strategy="uniform",
        )
        level_fprs = [
            fpr_for_bits(len(keys), bits) for bits in filt.memory_breakdown()
        ]
        worst = min(max(level_fprs), 0.49)
        key_set = set(keys)
        filt.stats.reset()
        trials = 0
        while trials < 300:
            low = rng.randrange((1 << 32) - 64)
            if any(k in key_set for k in range(low, low + 32)):
                continue
            trials += 1
            filt.may_contain_range(low, low + 31)
        measured = filt.stats.bloom_probes / trials
        bound = analysis.expected_range_probe_cost(worst, 32)
        assert measured <= bound * 1.5

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            analysis.expected_range_probe_cost(0.2, 0)


class TestFpExcessBound:
    def test_no_excess_is_no_evidence(self):
        assert analysis.fp_excess_bound(0, 0, 0.1) == 1.0
        assert analysis.fp_excess_bound(10, 100, 0.1) == 1.0
        assert analysis.fp_excess_bound(5, 100, 0.1) == 1.0
        assert analysis.fp_excess_bound(100, 100, 1.0) == 1.0

    def test_all_false_positives_is_p_to_the_n(self):
        assert analysis.fp_excess_bound(3, 3, 0.1) == pytest.approx(1e-3)

    def test_bounds_the_exact_binomial_tail(self):
        from math import comb

        for k, n, p in ((5, 20, 0.05), (30, 200, 0.1), (12, 40, 0.2)):
            tail = sum(
                comb(n, i) * p ** i * (1 - p) ** (n - i) for i in range(k, n + 1)
            )
            assert tail <= analysis.fp_excess_bound(k, n, p) < 1.0

    def test_shrinks_with_each_false_positive_and_grows_with_negatives(self):
        assert analysis.fp_excess_bound(9, 100, 0.05) < analysis.fp_excess_bound(
            8, 100, 0.05
        )
        assert analysis.fp_excess_bound(9, 100, 0.05) < analysis.fp_excess_bound(
            9, 120, 0.05
        )

    def test_a_false_positive_of_a_filter_that_cannot_err(self):
        assert analysis.fp_excess_bound(1, 10, 0.0) == 0.0
