"""Unit tests for workload tracking and the §2.4 auto-tuner."""

import pytest

from repro.core.tuning import AutoTuner, TuningDecision, WorkloadTracker


class TestWorkloadTracker:
    def test_range_histogram(self):
        tracker = WorkloadTracker()
        for _ in range(3):
            tracker.record_query(range_size=8)
        tracker.record_query(range_size=64)
        assert tracker.range_size_histogram == {8: 3, 64: 1}
        assert tracker.num_range_queries == 4

    def test_point_counting(self):
        tracker = WorkloadTracker()
        tracker.record_query(point_queries=1)
        tracker.record_query(point_queries=1)
        assert tracker.num_point_queries == 2

    def test_invalid_range_size(self):
        with pytest.raises(ValueError):
            WorkloadTracker().record_query(range_size=0)

    def test_fpr_accounting(self):
        tracker = WorkloadTracker()
        tracker.record_query(true_positives=1)
        tracker.record_query(false_positives=1)
        tracker.record_query(negatives=2)
        counts = tracker.to_dict()
        assert counts["filter_positives"] == 2
        assert counts["false_positives"] == 1
        assert counts["filter_negatives"] == 2

    def test_fpr_with_no_data(self):
        counts = WorkloadTracker().to_dict()
        assert counts["false_positives"] == counts["filter_negatives"] == 0

    def test_dominant_small_ranges(self):
        tracker = WorkloadTracker()
        for _ in range(60):
            tracker.record_query(range_size=8)
        for _ in range(40):
            tracker.record_query(range_size=128)
        assert tracker.dominant_small_ranges()

    def test_dominant_small_ranges_negative(self):
        tracker = WorkloadTracker()
        for _ in range(40):
            tracker.record_query(range_size=8)
        for _ in range(60):
            tracker.record_query(range_size=128)
        assert not tracker.dominant_small_ranges()

    def test_dominant_small_ranges_empty(self):
        assert not WorkloadTracker().dominant_small_ranges()

    def test_percentile(self):
        tracker = WorkloadTracker()
        for size in (2, 2, 2, 2, 2, 2, 2, 2, 2, 100):
            tracker.record_query(range_size=size)
        assert tracker.percentile_range_size(0.5) == 2
        assert tracker.percentile_range_size(1.0) == 100

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            WorkloadTracker().percentile_range_size(0.0)
        assert WorkloadTracker().percentile_range_size(0.9) == 1


class TestAutoTuner:
    def test_small_range_workload_goes_single(self):
        tracker = WorkloadTracker()
        for _ in range(100):
            tracker.record_query(range_size=8)
        decision = AutoTuner().recommend(tracker)
        assert decision.strategy == "single"
        assert decision.max_range == 8

    def test_large_range_workload_goes_variable(self):
        tracker = WorkloadTracker()
        for _ in range(100):
            tracker.record_query(range_size=100)
        decision = AutoTuner().recommend(tracker)
        assert decision.strategy == "variable"
        assert decision.max_range == 128  # next power of two

    def test_point_only_workload_goes_single_level_one(self):
        tracker = WorkloadTracker()
        for _ in range(50):
            tracker.record_query(point_queries=1)
        decision = AutoTuner().recommend(tracker)
        assert decision.strategy == "single"
        assert decision.max_range == 1

    def test_no_data_uses_default(self):
        decision = AutoTuner().recommend(WorkloadTracker(), default_max_range=256)
        assert decision.strategy == "optimized"
        assert decision.max_range == 256

    def test_range_cap(self):
        tracker = WorkloadTracker()
        tracker.record_query(range_size=10**6)
        decision = AutoTuner(range_cap=512).recommend(tracker)
        assert decision.max_range == 512

    def test_coverage_quantile_ignores_outliers(self):
        tracker = WorkloadTracker()
        for _ in range(99):
            tracker.record_query(range_size=16)
        tracker.record_query(range_size=10**6)
        decision = AutoTuner(coverage=0.95).recommend(tracker)
        assert decision.max_range == 16

    def test_build_kwargs_shape(self):
        decision = TuningDecision(
            strategy="variable", max_range=64, range_size_histogram={32: 5}
        )
        kwargs = decision.build_kwargs()
        assert kwargs == {
            "strategy": "variable",
            "max_range": 64,
            "range_size_histogram": {32: 5},
        }

    def test_build_kwargs_empty_histogram_becomes_none(self):
        decision = TuningDecision(strategy="single", max_range=8)
        assert decision.build_kwargs()["range_size_histogram"] is None

    def test_invalid_tuner_parameters(self):
        with pytest.raises(ValueError):
            AutoTuner(coverage=0.0)
        with pytest.raises(ValueError):
            AutoTuner(range_cap=0)
