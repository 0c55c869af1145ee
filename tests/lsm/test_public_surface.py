"""The public surfaces are pinned: adding a method means editing this list.

A method or property stays only if something outside its own tests calls
it (the same rule ``test_option_fields.py`` applies to option fields).
"""

import pytest

import repro.lsm
from repro.lsm.db import DB
from repro.lsm.serving import ShardedServer

_PUBLIC = {
    DB: (
        "background_error",
        "batch",
        "close",
        "compact",
        "delete",
        "describe",
        "flush",
        "force_full_compaction",
        "get",
        "health",
        "ingest",
        "iterator",
        "kill",
        "multi_get",
        "num_live_files",
        "put",
        "range_iter",
        "range_query",
        "resume",
        "retune_filters",
        "verify",
        "version",
        "wait_idle",
        "write",
    ),
    ShardedServer: (
        "close",
        "delete",
        "flush",
        "get",
        "get_async",
        "health",
        "multi_get",
        "multi_get_async",
        "perf_totals",
        "put",
        "range_query",
        "range_query_async",
        "shards",
        "stats",
        "wait_idle",
    ),
}


@pytest.mark.parametrize("cls", list(_PUBLIC), ids=lambda cls: cls.__name__)
def test_public_names_are_pinned(cls):
    public = sorted(name for name in vars(cls) if not name.startswith("_"))
    assert tuple(public) == _PUBLIC[cls]


def test_package_exports_are_pinned():
    assert sorted(repro.lsm.__all__) == sorted([
        "BlockCache",
        "DB",
        "DBOptions",
        "DEVICE_PRESETS",
        "DeterministicScheduler",
        "DeviceModel",
        "FaultInjectionEnv",
        "HealthReport",
        "InlineScheduler",
        "MemTable",
        "PerfStats",
        "QueryContext",
        "RepairOutcome",
        "ServingHealth",
        "ServingOptions",
        "ServingStats",
        "ShardRouter",
        "ShardedServer",
        "StorageEnv",
        "Stopwatch",
        "ThreadPoolScheduler",
        "VerificationReport",
        "WriteBatch",
        "repair_store",
        "verify_version",
    ])
