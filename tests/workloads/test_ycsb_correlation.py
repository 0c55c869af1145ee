"""Unit tests for workload generation: emptiness, correlation, mixes."""

import bisect

import pytest

from repro.errors import WorkloadError
from repro.workloads.correlation import correlated_range_queries, correlation_sweep
from repro.workloads.ycsb import Query, Workload, WorkloadBuilder


@pytest.fixture
def keys(rng):
    return sorted(rng.sample(range(1 << 32), 3000))


def _is_empty(sorted_keys, low, high):
    idx = bisect.bisect_left(sorted_keys, low)
    return not (idx < len(sorted_keys) and sorted_keys[idx] <= high)


class TestEmptyRangeQueries:
    def test_all_ranges_are_empty(self, keys):
        builder = WorkloadBuilder(keys, 32, seed=1)
        workload = builder.empty_range_queries(200, 32)
        assert len(workload) == 200
        for query in workload:
            assert query.range_size == 32
            assert _is_empty(keys, query.low, query.high)

    def test_deterministic(self, keys):
        a = WorkloadBuilder(keys, 32, seed=2).empty_range_queries(50, 16)
        b = WorkloadBuilder(keys, 32, seed=2).empty_range_queries(50, 16)
        assert a.queries == b.queries

    def test_range_size_one(self, keys):
        workload = WorkloadBuilder(keys, 32, seed=3).empty_range_queries(50, 1)
        assert all(q.low == q.high for q in workload)

    def test_dense_keyspace_raises(self):
        dense = list(range(200))
        builder = WorkloadBuilder(dense, 8, seed=4)
        with pytest.raises(WorkloadError):
            builder.empty_range_queries(50, 64)

    def test_invalid_range_size(self, keys):
        with pytest.raises(WorkloadError):
            WorkloadBuilder(keys, 32).empty_range_queries(10, 0)

    def test_metadata_recorded(self, keys):
        workload = WorkloadBuilder(keys, 32, seed=5).empty_range_queries(10, 8)
        assert workload.metadata["range_size"] == 8
        assert "empty-range" in workload.description


class TestCorrelatedQueries:
    def test_lower_bound_is_key_plus_theta(self, keys):
        workload = correlated_range_queries(keys, 32, 100, 16, theta=1, seed=6)
        key_set = set(keys)
        for query in workload:
            assert query.low - 1 in key_set
            assert _is_empty(keys, query.low, query.high)

    def test_larger_theta(self, keys):
        workload = correlated_range_queries(keys, 32, 50, 8, theta=7, seed=7)
        key_set = set(keys)
        assert all(q.low - 7 in key_set for q in workload)

    def test_invalid_theta(self, keys):
        with pytest.raises(WorkloadError):
            correlated_range_queries(keys, 32, 10, 8, theta=0)

    def test_sweep_covers_thetas(self, keys):
        sweep = correlation_sweep(keys, 32, 20, 8, thetas=(1, 4))
        assert set(sweep) == {1, 4}
        assert all(len(w) == 20 for w in sweep.values())


class TestPointQueries:
    def test_empty_points_absent(self, keys):
        workload = WorkloadBuilder(keys, 32, seed=8).empty_point_queries(100)
        key_set = set(keys)
        assert all(q.low not in key_set for q in workload)
        assert all(q.kind == "point" for q in workload)


class TestWorkloadE:
    def test_mix_proportions(self, keys):
        workload = WorkloadBuilder(keys, 32, seed=10).workload_e(
            200, max_range_size=32, scan_fraction=0.9
        )
        scans = sum(1 for q in workload if q.kind == "range")
        assert scans == 180
        assert len(workload) == 200

    def test_scan_sizes_bounded(self, keys):
        workload = WorkloadBuilder(keys, 32, seed=11).workload_e(
            100, max_range_size=16
        )
        for query in workload:
            if query.kind == "range":
                assert 1 <= query.range_size <= 16

    def test_all_queries_empty(self, keys):
        workload = WorkloadBuilder(keys, 32, seed=12).workload_e(100)
        for query in workload:
            assert _is_empty(keys, query.low, query.high)

    def test_invalid_fraction(self, keys):
        with pytest.raises(WorkloadError):
            WorkloadBuilder(keys, 32).workload_e(10, scan_fraction=1.5)


class TestWideDomain:
    def test_wide_keys_supported(self):
        keys = [1 << 90, (1 << 90) + 100, (1 << 95) + 7]
        builder = WorkloadBuilder(keys, 96, seed=13)
        workload = builder.empty_range_queries(20, 64)
        assert len(workload) == 20
        for query in workload:
            assert query.high < (1 << 96)
            assert _is_empty(keys, query.low, query.high)

    def test_wide_correlated(self):
        keys = [1 << 90, (1 << 91)]
        workload = WorkloadBuilder(keys, 96, seed=14).empty_range_queries(
            10, 8, correlation_offset=1
        )
        key_set = set(keys)
        assert all(q.low - 1 in key_set for q in workload)

    def test_wide_points(self):
        keys = [1 << 90]
        workload = WorkloadBuilder(keys, 96, seed=15).empty_point_queries(10)
        assert all(q.low != keys[0] for q in workload)


class TestQueryDataclass:
    def test_range_size(self):
        assert Query("range", 10, 25).range_size == 16
        assert Query("point", 5, 5).range_size == 1

    def test_workload_iteration(self):
        queries = [Query("point", 1, 1), Query("range", 2, 9)]
        workload = Workload(queries, description="test")
        assert list(workload) == queries
        assert len(workload) == 2


class TestOccupiedRangeQueries:
    def test_filters_always_positive_on_occupied_ranges(self, keys, rng):
        """No filter may reject an occupied range (soundness end to end)."""
        from repro.bench.factories import make_factory

        ranges = []
        for anchor in rng.sample(keys, 100):
            low = max(0, anchor - rng.randrange(16))
            ranges.append((low, low + 15))
        for name in ("rosetta", "surf"):
            filt = make_factory(name, 32, 16, max_range=16).build(keys)
            for low, high in ranges:
                assert filt.may_contain_range(low, high), name
