"""The write side on its own: :class:`~repro.lsm.writer.Writer` without a DB.

The writer reaches the superversion chain only through the ``current`` and
``install`` operations it is handed, so a two-method stand-in drives it:
puts land in the WAL and the active memtable, a full memtable seals and
flushes through one version install, a replaced run's file goes once
nothing references the run, and a second writer recovers what the first
one logged.
"""

import json
import os
from types import SimpleNamespace

import pytest

from repro.core.tuning import WorkloadTracker
from repro.errors import ClosedStoreError, ReadOnlyStoreError
from repro.lsm.block_cache import BlockCache
from repro.lsm.env import StorageEnv
from repro.lsm.faults import FaultInjectionEnv
from repro.lsm.format import ValueTag
from repro.lsm.options import DBOptions
from repro.lsm.stats import PerfStats
from repro.lsm.version import MANIFEST, Version
from repro.lsm.writer import Writer


class _Chain:
    """The superversion chain as the writer sees it: the current cut, and
    an install that publishes the next one (no reader holds an older one
    here, so a replaced run goes with the cut that held it)."""

    def __init__(self) -> None:
        self.open = True
        self.sv = None

    def current(self):
        return self.sv

    def install(self, active, immutables, version):
        version.freeze()
        self.sv = SimpleNamespace(active=active, immutables=immutables, version=version)


def _options(**overrides) -> DBOptions:
    settings = dict(
        key_bits=32,
        memtable_size_bytes=4 << 10,
        sst_size_bytes=8 << 10,
        max_bytes_for_level_base=32 << 10,
        block_size_bytes=1024,
    )
    settings.update(overrides)
    return DBOptions(**settings)


def _writer(env, options) -> tuple[Writer, _Chain]:
    chain = _Chain()
    writer = Writer(
        env,
        options,
        env.stats,
        WorkloadTracker(),
        BlockCache(1 << 20),
        current=chain.current,
        install=chain.install,
        is_open=lambda: chain.open,
        encode_key=lambda key: key.to_bytes(options.key_width_bytes, "big"),
        last_file_number=0,
    )
    active, immutables = writer.recover_logs()
    chain.install(active, immutables, Version())
    return writer, chain


def _sst_files(root) -> set[str]:
    return {name for name in os.listdir(root) if name.endswith(".sst")}


def test_writes_seal_flush_and_compact_through_the_chain(tmp_path):
    env = StorageEnv(str(tmp_path), stats=PerfStats())
    writer, chain = _writer(env, _options())
    writer.write_key(ValueTag.PUT, 7, b"seven")
    writer.write_key(ValueTag.DELETE, 8)
    assert chain.sv.active.get(b"\x00\x00\x00\x07") == (ValueTag.PUT, b"seven")
    assert chain.sv.active.get(b"\x00\x00\x00\x08")[0] == ValueTag.DELETE
    for key in range(1000):  # ~70 KiB: many seals, flushes, compactions
        writer.write_key(ValueTag.PUT, key, b"v" * 64)
    writer.flush()
    version = chain.sv.version
    assert chain.sv.immutables == () and chain.sv.active.is_empty
    assert env.stats.flushes > 1 and env.stats.compactions > 0
    # What a compaction replaced was reaped: only live runs are on disk,
    # and the manifest lists exactly them.
    live = {run.name for run in version.all_runs_newest_first()}
    assert _sst_files(tmp_path) == live
    manifest = json.loads(env.read_file(MANIFEST))
    listed = set(manifest["level0"]).union(*manifest["levels"].values())
    assert listed == live
    # Every sealed memtable's log went once its flush landed; the fresh
    # active log has no append yet.
    assert [name for name in os.listdir(tmp_path) if name.endswith(".log")] == []


def test_a_second_writer_recovers_what_the_first_logged(tmp_path):
    env = StorageEnv(str(tmp_path), stats=PerfStats())
    writer, _ = _writer(env, _options())
    writer.write_key(ValueTag.PUT, 1, b"one")
    writer.write_key(ValueTag.PUT, 2, b"two")
    writer.write_key(ValueTag.DELETE, 1)
    env.close()  # a crash: nothing flushed, only the WAL holds the writes

    _, chain = _writer(StorageEnv(str(tmp_path), stats=PerfStats()), _options())
    active = chain.sv.active
    assert active.get(b"\x00\x00\x00\x02") == (ValueTag.PUT, b"two")
    assert active.get(b"\x00\x00\x00\x01")[0] == ValueTag.DELETE
    assert chain.sv.immutables == ()


def test_closed_and_parked_writers_refuse_writes(tmp_path):
    env = FaultInjectionEnv(str(tmp_path), "memory", PerfStats(), seed=3)
    writer, chain = _writer(env, _options())
    writer.write_key(ValueTag.PUT, 1, b"one")
    env.fail_next_writes(1)
    writer.flush()  # the SST write fails: the writer parks, keeps the data
    assert writer.background_error.startswith("flush: OSError")
    assert len(chain.sv.immutables) == 1
    with pytest.raises(ReadOnlyStoreError):
        writer.write_key(ValueTag.PUT, 2, b"two")
    assert writer.resume()
    assert chain.sv.immutables == () and len(chain.sv.version.level0) == 1
    chain.open = False
    with pytest.raises(ClosedStoreError):
        writer.write_key(ValueTag.PUT, 3, b"three")
