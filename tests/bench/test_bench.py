"""Unit tests for the benchmark harness: measurement, factories, reports."""

import os

import pytest

from repro.bench.endtoend import load_database, run_workload, scratch_db
from repro.bench.factories import FILTER_NAMES, make_factory
from repro.bench.harness import end_to_end_latency_model, measure_filter
from repro.bench.report import banner, format_table, write_csv
from repro.errors import WorkloadError
from repro.lsm.options import DBOptions
from repro.workloads.keygen import generate_dataset
from repro.workloads.ycsb import WorkloadBuilder


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(2000, key_bits=64, seed=1, value_size=32)


@pytest.fixture(scope="module")
def keys(dataset):
    return [int(k) for k in dataset.keys]


@pytest.fixture(scope="module")
def workload(keys):
    return WorkloadBuilder(keys, 64, seed=2).empty_range_queries(60, 16)


class TestFactories:
    @pytest.mark.parametrize("name", FILTER_NAMES)
    def test_every_recipe_builds_and_answers(self, name, keys):
        factory = make_factory(name, 64, 16, max_range=64)
        filt = factory.build(keys[:500])
        assert all(filt.may_contain(k) for k in keys[:50])
        assert filt.size_in_bits() > 0
        assert filt.serialize()

    def test_unknown_recipe_rejected(self):
        with pytest.raises(WorkloadError):
            make_factory("made-up", 64, 10)

    def test_rosetta_strategy_variants_differ(self, keys):
        single = make_factory("rosetta-single", 64, 16, max_range=64).build(keys)
        uniform = make_factory("rosetta-uniform", 64, 16, max_range=64).build(keys)
        assert single._rosetta._allocation.strategy == "single"
        assert uniform._rosetta._allocation.strategy == "uniform"


class TestMeasureFilter:
    def test_measurement_fields(self, keys, workload):
        factory = make_factory("rosetta", 64, 18, max_range=64)
        m = measure_filter(factory.build, keys, workload)
        assert m.num_keys == len(set(keys))
        assert m.queries == len(workload)
        assert 0.0 <= m.fpr <= 1.0
        assert m.bits_per_key == pytest.approx(18, rel=0.02)
        assert m.construction_seconds > 0
        assert m.probe_seconds > 0
        assert m.internal_probes > 0

    def test_fence_measurement(self, keys, workload):
        factory = make_factory("fence", 64, 0)
        m = measure_filter(factory.build, keys, workload, name="fence")
        assert m.filter_name == "fence"
        assert m.fpr > 0.5  # fences can't reject interior empty ranges

    def test_latency_model(self, keys, workload):
        # Use the fence baseline: its FPR is large and stable, so the
        # device term is guaranteed non-zero.
        factory = make_factory("fence", 64, 0)
        m = measure_filter(factory.build, keys, workload)
        model = end_to_end_latency_model(m, device="hdd")
        assert model["total_us"] == pytest.approx(
            model["probe_us"] + model["io_us"]
        )
        memory = end_to_end_latency_model(m, device="memory")
        assert memory["io_us"] < model["io_us"]

    def test_latency_model_unknown_device(self, keys, workload):
        factory = make_factory("bloom", 64, 10)
        m = measure_filter(factory.build, keys, workload)
        with pytest.raises(WorkloadError):
            end_to_end_latency_model(m, device="tape")


class TestEndToEnd:
    def _options(self):
        return DBOptions(
            key_bits=64,
            memtable_size_bytes=16 << 10,
            sst_size_bytes=64 << 10,
            max_bytes_for_level_base=256 << 10,
            block_size_bytes=1024,
        )

    def test_scratch_db_loads_and_cleans_up(self, dataset, workload):
        factory = make_factory("rosetta", 64, 18, max_range=64)
        with scratch_db(dataset, factory, self._options()) as db:
            path = db._env.root  # noqa: SLF001
            assert db.num_live_files() > 0
            result = run_workload(db, workload)
        assert not os.path.exists(path)
        assert result.queries == len(workload)
        assert result.total_seconds > 0
        assert result.filter_probes > 0
        assert 0.0 <= result.fpr <= 1.0

    def test_result_cpu_decomposition(self, dataset, workload):
        factory = make_factory("rosetta", 64, 18, max_range=64)
        with scratch_db(dataset, factory, self._options()) as db:
            result = run_workload(db, workload)
        assert result.cpu_seconds == pytest.approx(
            result.filter_probe_seconds
            + result.deserialize_seconds
            + result.serialize_seconds
            + result.residual_seek_seconds
        )
        assert result.end_to_end_seconds >= result.total_seconds

    def test_no_filter_database(self, dataset, workload):
        with scratch_db(dataset, None, self._options()) as db:
            result = run_workload(db, workload)
        assert result.filter_probes == 0
        assert result.block_reads > 0  # every empty query pays I/O

    def test_write_path_fraction(self, dataset, tmp_path):
        db = load_database(
            str(tmp_path / "frac"), dataset, None, self._options(),
            write_path_fraction=0.5,
        )
        assert db.stats.writes >= len(dataset) * 0.45
        db.close()


class TestReport:
    def test_format_table_alignment(self):
        table = format_table(
            ("name", "value"), [("a", 1.5), ("long-name", 0.000001)],
            title="T",
        )
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "1e-06" in table or "1.000e-06" in table

    def test_format_empty_table(self):
        table = format_table(("x",), [])
        assert "x" in table

    def test_write_csv(self, tmp_path):
        path = str(tmp_path / "out" / "table.csv")
        write_csv(path, ("a", "b"), [(1, 2), (3, 4)])
        with open(path) as handle:
            content = handle.read()
        assert content.splitlines() == ["a,b", "1,2", "3,4"]

    def test_banner(self):
        assert "hello" in banner("hello")
