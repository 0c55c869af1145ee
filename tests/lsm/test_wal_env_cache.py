"""Unit tests for the WAL, storage environment, and block cache."""

import os
import random
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.lsm import DB, DBOptions
from repro.lsm.block_cache import PROTECTED_SHARE, BlockCache
from repro.lsm.env import DEVICE_PRESETS, DeviceModel, StorageEnv
from repro.lsm.format import ValueTag
from repro.lsm.stats import PerfStats
from repro.lsm.wal import WriteAheadLog


class TestStorageEnv:
    def test_write_then_block_read(self, tmp_path):
        env = StorageEnv(str(tmp_path))
        env.write_file("data.bin", b"hello world")
        assert env.read_block("data.bin", 6, 5) == b"world"

    def test_block_reads_charge_device_time(self, tmp_path):
        stats = PerfStats()
        env = StorageEnv(str(tmp_path), device="ssd", stats=stats)
        env.write_file("f", b"x" * 4096)
        env.read_block("f", 0, 4096)
        assert stats.block_reads == 1
        assert stats.block_read_bytes == 4096
        expected = DEVICE_PRESETS["ssd"].block_read_ns(4096)
        assert stats.block_read_time_ns == expected

    def test_device_presets_ordering(self):
        memory = DEVICE_PRESETS["memory"].block_read_ns(4096)
        ssd = DEVICE_PRESETS["ssd"].block_read_ns(4096)
        hdd = DEVICE_PRESETS["hdd"].block_read_ns(4096)
        assert memory < ssd < hdd

    def test_scaled_presets_preserve_ordering(self):
        for name in ("memory", "ssd", "hdd"):
            raw = DEVICE_PRESETS[name].block_read_ns(4096)
            scaled = DEVICE_PRESETS[f"{name}-scaled"].block_read_ns(4096)
            assert scaled > raw

    def test_unknown_device_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            StorageEnv(str(tmp_path), device="floppy")

    def test_custom_device_model(self, tmp_path):
        model = DeviceModel("test", read_seek_ns=5, read_per_byte_ns=1.0)
        env = StorageEnv(str(tmp_path), device=model)
        env.write_file("f", b"ab")
        env.read_block("f", 0, 2)
        assert env.stats.block_read_time_ns == 7

    def test_delete_file(self, tmp_path):
        env = StorageEnv(str(tmp_path))
        env.write_file("gone", b"x")
        env.read_block("gone", 0, 1)  # opens a handle
        env.delete_file("gone")
        assert not env.exists("gone")
        env.delete_file("gone")  # idempotent

    def test_list_files_sorted(self, tmp_path):
        env = StorageEnv(str(tmp_path))
        for name in ("b", "a", "c"):
            env.write_file(name, b"")
        assert env.list_files() == ["a", "b", "c"]

    def test_append(self, tmp_path):
        env = StorageEnv(str(tmp_path))
        env.append_file("log", b"one")
        env.append_file("log", b"two")
        assert env.read_file("log") == b"onetwo"

    def test_append_handle_stays_open_until_delete(self, tmp_path):
        env = StorageEnv(str(tmp_path))
        env.append_file("log", b"one")
        (handle,) = env._append_handles.values()
        env.append_file("log", b"two")
        assert list(env._append_handles.values()) == [handle]  # one open, reused
        assert not handle.closed
        env.delete_file("log")
        assert handle.closed and not env._append_handles
        assert not env.exists("log")
        env.append_file("log", b"three")  # a new file, not the unlinked inode
        assert env.read_file("log") == b"three"
        env.close()

    def test_close_releases_append_handles(self, tmp_path):
        env = StorageEnv(str(tmp_path))
        env.append_file("a.log", b"a")
        env.append_file("b.log", b"b")
        handles = list(env._append_handles.values())
        assert len(handles) == 2
        env.close()
        assert all(handle.closed for handle in handles)
        assert not env._append_handles
        env.close()  # idempotent

    def test_db_close_releases_the_wal_handle(self, tmp_path):
        db = DB(str(tmp_path), DBOptions(key_bits=32))
        db.put(1, b"v")
        (handle,) = db._env._append_handles.values()
        db.close()
        assert handle.closed

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_open_descriptors_do_not_grow_across_wal_rotations(self, tmp_path):
        """Every seal starts a new WAL; every flush must close the old one."""
        db = DB(str(tmp_path), DBOptions(key_bits=32))
        peaks = []
        for cycle in range(60):
            for key in range(16):  # overwrites: the tree stays a few files
                db.put(key, b"%d/%d" % (cycle, key))
                assert len(db._env._append_handles) <= 1
            db.flush()
            peaks.append(len(os.listdir("/proc/self/fd")))
        db.close()
        # Live SSTs (one read handle each) rise and fall with compaction, so
        # compare like with like: the last ten cycles against the first ten.
        assert max(peaks[-10:]) <= max(peaks[:10])


class TestWriteAheadLog:
    def test_replay_in_order(self, tmp_path):
        env = StorageEnv(str(tmp_path))
        wal = WriteAheadLog(env)
        wal.append_put(b"a", b"1")
        wal.append_delete(b"b")
        wal.append_put(b"c", b"3")
        records = list(wal.replay())
        assert records == [
            (ValueTag.PUT, b"a", b"1"),
            (ValueTag.DELETE, b"b", b""),
            (ValueTag.PUT, b"c", b"3"),
        ]

    def test_replay_missing_log_is_empty(self, tmp_path):
        env = StorageEnv(str(tmp_path))
        assert list(WriteAheadLog(env).replay()) == []

    def test_torn_tail_ignored(self, tmp_path):
        env = StorageEnv(str(tmp_path))
        wal = WriteAheadLog(env)
        wal.append_put(b"good", b"v")
        wal.append_put(b"torn", b"v")
        path = env.path(wal.name)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 3)
        records = list(wal.replay())
        assert records == [(ValueTag.PUT, b"good", b"v")]

    def test_corrupt_record_stops_replay(self, tmp_path):
        env = StorageEnv(str(tmp_path))
        wal = WriteAheadLog(env)
        wal.append_put(b"first", b"1")
        wal.append_put(b"second", b"2")
        path = env.path(wal.name)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.seek(size - 2)
            handle.write(b"\xff")
        assert list(wal.replay()) == [(ValueTag.PUT, b"first", b"1")]


class TestBlockCache:
    def test_hit_and_miss(self):
        cache = BlockCache(1024)
        assert cache.get(("f", 0)) is None
        cache.put(("f", 0), b"data")
        assert cache.get(("f", 0)) == b"data"

    def test_lru_eviction(self):
        cache = BlockCache(10)
        cache.put(("f", 0), b"aaaa")
        cache.put(("f", 1), b"bbbb")
        cache.put(("f", 2), b"cccc")  # evicts ("f", 0)
        assert cache.get(("f", 0)) is None
        assert cache.get(("f", 2)) == b"cccc"

    def test_access_refreshes_lru(self):
        cache = BlockCache(8)
        cache.put(("f", 0), b"aaaa")
        cache.put(("f", 1), b"bbbb")
        cache.get(("f", 0))  # refresh
        cache.put(("f", 2), b"cccc")  # evicts ("f", 1), not ("f", 0)
        assert cache.get(("f", 0)) == b"aaaa"
        assert cache.get(("f", 1)) is None

    def test_block_hit_once_outlives_blocks_read_once(self):
        cache = BlockCache(20)
        cache.put(("f", 0), b"aaaa")
        cache.get(("f", 0))  # read twice: protected
        for offset in range(1, 10):  # a scan's worth of single reads
            cache.put(("f", offset), b"bbbb")
        assert cache.get(("f", 0)) == b"aaaa"
        assert cache.get(("f", 1)) is None

    def test_protected_overflow_demotes_into_probation(self):
        cache = BlockCache(12)  # protected share: 9 bytes
        for offset in range(3):
            cache.put(("f", offset), b"aaaa")
            cache.get(("f", offset))
        # ("f", 0) was demoted, so it is the first to go.
        cache.put(("f", 3), b"bbbb")
        assert cache.get(("f", 0)) is None
        assert cache.get(("f", 1)) == b"aaaa"
        assert cache.used_bytes <= cache.capacity_bytes

    def test_oversized_block_not_cached(self):
        cache = BlockCache(4)
        cache.put(("f", 0), b"toolarge")
        assert cache.get(("f", 0)) is None

    def test_zero_capacity_disables(self):
        cache = BlockCache(0)
        cache.put(("f", 0), b"x")
        assert cache.get(("f", 0)) is None

    def test_remove_file_purges_all_entries(self):
        cache = BlockCache(1024)
        cache.put(("a.sst", 0), b"1")
        cache.put(("a.sst", 8), b"2")
        cache.get(("a.sst", 8))  # protected: both segments hold a.sst
        cache.put(("b.sst", 0), b"3")
        cache.remove_file("a.sst")
        assert cache.get(("a.sst", 0)) is None
        assert cache.get(("a.sst", 8)) is None
        assert cache.get(("b.sst", 0)) == b"3"
        assert cache.used_bytes == 1

    def test_reinsert_same_key_replaces(self):
        cache = BlockCache(1024)
        cache.put(("f", 0), b"old!")
        cache.put(("f", 0), b"new")
        assert cache.get(("f", 0)) == b"new"
        assert cache.used_bytes == 3

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            BlockCache(-1)

    def test_threads_keep_the_byte_accounting_exact(self):
        cache = BlockCache(64)
        errors: list[BaseException] = []

        def hammer(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for _ in range(3000):
                    key = (rng.choice("ab"), rng.randrange(8))
                    step = rng.random()
                    if step < 0.5:
                        cache.put(key, bytes(rng.randrange(1, 12)))
                    elif step < 0.97:
                        cache.get(key)
                    else:
                        cache.remove_file(key[0])
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        segments = (cache._probation, cache._protected)  # noqa: SLF001
        assert cache.used_bytes == sum(len(b) for s in segments for b in s.values())
        assert cache._protected_used == sum(map(len, cache._protected.values()))  # noqa: SLF001
        assert cache.used_bytes <= cache.capacity_bytes


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(0, 48),
    steps=st.lists(
        st.tuples(
            st.sampled_from(["put", "get", "remove_file"]),
            st.sampled_from(["a.sst", "b.sst"]),
            st.integers(0, 5),
            st.binary(min_size=1, max_size=12),
        ),
        max_size=80,
    ),
)
# An oversized re-put of a cached key must not leave the older block.
@example(capacity=1, steps=[("put", "a.sst", 0, b"1"), ("put", "a.sst", 0, b"22")])
def test_block_cache_matches_a_dict_model(capacity, steps):
    """Random put / get / remove_file against the last block put per key."""
    cache = BlockCache(capacity)
    model: dict[tuple[str, int], bytes] = {}
    for op, name, offset, block in steps:
        key = (name, offset)
        if op == "put":
            protected_before = cache._protected_used  # noqa: SLF001
            cache.put(key, block)
            model[key] = block
            if 0 < len(block) <= capacity - protected_before:
                assert cache.get(key) == block  # fits beside protected
        elif op == "get":
            assert cache.get(key) in (None, model.get(key))
        else:
            cache.remove_file(name)
            model = {k: v for k, v in model.items() if k[0] != name}
            assert all(k[0] != name for k in cache._probation)  # noqa: SLF001
            assert all(k[0] != name for k in cache._protected)  # noqa: SLF001
        probation = cache._probation  # noqa: SLF001
        protected = cache._protected  # noqa: SLF001
        assert not probation.keys() & protected.keys()
        for segment in (probation, protected):
            assert all(model[k] == v for k, v in segment.items())
        protected_bytes = sum(map(len, protected.values()))
        assert cache._protected_used == protected_bytes  # noqa: SLF001
        assert protected_bytes <= capacity * PROTECTED_SHARE
        assert cache.used_bytes == protected_bytes + sum(map(len, probation.values()))
        assert cache.used_bytes <= capacity
        assert len(cache) == len(probation) + len(protected)
