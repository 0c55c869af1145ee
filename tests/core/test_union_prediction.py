"""Tests for a built filter's self-prediction and the §3.2 non-uniform bound."""

import random

import pytest

from repro.core import analysis
from repro.core.rosetta import Rosetta


class TestSelfPrediction:
    def test_prediction_close_to_measurement(self, small_keys):
        filt = Rosetta.build(small_keys, key_bits=32, bits_per_key=14,
                             max_range=32, strategy="uniform")
        predicted = filt.predicted_range_fpr(16)
        key_set = set(small_keys)
        rng = random.Random(23)
        fp = trials = 0
        while trials < 1500:
            low = rng.randrange((1 << 32) - 16)
            if any(k in key_set for k in range(low, low + 16)):
                continue
            trials += 1
            fp += filt.may_contain_range(low, low + 15)
        measured = fp / trials
        assert predicted == pytest.approx(measured, rel=0.8, abs=0.02)

    def test_prediction_monotone_in_range(self, small_keys):
        filt = Rosetta.build(small_keys, key_bits=32, bits_per_key=14)
        assert filt.predicted_range_fpr(64) >= filt.predicted_range_fpr(2)


class TestNonUniformTheory:
    def test_theta_prime_formula(self):
        theta = analysis.nonuniform_theta([0.1, 0.2])
        assert theta == pytest.approx((0.25 - 0.2 * 0.9) ** 0.5)

    def test_supercritical_rejected(self):
        with pytest.raises(ValueError):
            analysis.nonuniform_theta([0.01, 0.45])  # 0.45*0.99 > 1/4

    def test_nonuniform_bound_dominates_uniform(self):
        """Equal FPRs: the non-uniform bound reduces to the uniform one."""
        uniform = analysis.expected_range_probe_cost(0.2, 32)
        via_nonuniform = analysis.expected_range_probe_cost_nonuniform(
            [0.2, 0.2, 0.2], 32
        )
        assert via_nonuniform == pytest.approx(uniform, rel=1e-6)

    def test_nonuniform_bound_covers_measurement(self, small_keys):
        from repro.core.bloom import fpr_for_bits

        # Uniform at 18 bits/key keeps every level subcritical
        # (p ~= 0.24, p_max*(1-p_min) ~= 0.18 < 1/4).
        filt = Rosetta.build(small_keys, key_bits=32, bits_per_key=18,
                             max_range=32, strategy="uniform")
        level_fprs = [
            min(max(fpr_for_bits(len(set(small_keys)), bits), 1e-6), 0.49)
            for bits in filt.memory_breakdown()
        ]
        bound = analysis.expected_range_probe_cost_nonuniform(level_fprs, 32)
        key_set = set(small_keys)
        rng = random.Random(24)
        filt.stats.reset()
        trials = 0
        while trials < 200:
            low = rng.randrange((1 << 32) - 32)
            if any(k in key_set for k in range(low, low + 32)):
                continue
            trials += 1
            filt.may_contain_range(low, low + 31)
        measured = filt.stats.bloom_probes / trials
        assert measured <= bound * 1.5
