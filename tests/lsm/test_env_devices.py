"""Unit tests for the device latency models and scaled presets."""

import pytest

from repro.lsm.env import (
    DEVICE_PRESETS,
    PYTHON_CPU_INFLATION,
    DeviceModel,
    StorageEnv,
)


class TestDeviceModel:
    def test_block_read_decomposition(self):
        model = DeviceModel("t", read_seek_ns=1000, read_per_byte_ns=2.0)
        assert model.block_read_ns(100) == 1000 + 200

    def test_zero_byte_read_costs_the_seek(self):
        model = DEVICE_PRESETS["hdd"]
        assert model.block_read_ns(0) == model.read_seek_ns

    def test_hdd_dominated_by_seek(self):
        hdd = DEVICE_PRESETS["hdd"]
        assert hdd.read_seek_ns > 100 * hdd.read_per_byte_ns * 4096

    def test_scaled_presets_exact_multiples(self):
        for name in ("memory", "ssd", "hdd"):
            raw = DEVICE_PRESETS[name]
            scaled = DEVICE_PRESETS[f"{name}-scaled"]
            assert scaled.read_seek_ns == raw.read_seek_ns * PYTHON_CPU_INFLATION
            assert scaled.read_per_byte_ns == pytest.approx(
                raw.read_per_byte_ns * PYTHON_CPU_INFLATION
            )
            assert scaled.name == f"{name}-scaled"

    def test_all_presets_have_positive_costs(self):
        for model in DEVICE_PRESETS.values():
            assert model.read_seek_ns > 0
            assert model.read_per_byte_ns > 0


class TestEnvCharging:
    def test_per_block_charging_additive(self, tmp_path):
        env = StorageEnv(str(tmp_path), device="ssd")
        env.write_file("f", bytes(8192))
        env.read_block("f", 0, 4096)
        one = env.stats.block_read_time_ns
        env.read_block("f", 4096, 4096)
        assert env.stats.block_read_time_ns == 2 * one

    def test_reads_return_exact_ranges(self, tmp_path):
        env = StorageEnv(str(tmp_path))
        payload = bytes(range(256))
        env.write_file("f", payload)
        assert env.read_block("f", 10, 5) == payload[10:15]
        assert env.read_block("f", 250, 100) == payload[250:]  # short read

    def test_write_charging(self, tmp_path):
        env = StorageEnv(str(tmp_path), device="memory")
        env.write_file("a", bytes(100))
        env.append_file("a", bytes(50))
        assert env.stats.bytes_written == 150

    def test_separate_files_separate_handles(self, tmp_path):
        env = StorageEnv(str(tmp_path))
        env.write_file("a", b"AAAA")
        env.write_file("b", b"BBBB")
        assert env.read_block("a", 0, 4) == b"AAAA"
        assert env.read_block("b", 0, 4) == b"BBBB"
        env.close()

    def test_close_is_idempotent(self, tmp_path):
        env = StorageEnv(str(tmp_path))
        env.write_file("f", b"x")
        env.read_block("f", 0, 1)
        env.close()
        env.close()
        # A read after close reopens transparently.
        assert env.read_block("f", 0, 1) == b"x"
