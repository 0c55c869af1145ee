"""LSM-tree key-value store substrate (the paper's RocksDB stand-in).

Public surface: :class:`~repro.lsm.db.DB` and
:class:`~repro.lsm.options.DBOptions`; the building blocks (memtable, SST
tables, block cache, compaction, iterators, stats, storage environment) are
importable individually for tests and benchmarks.
"""

from repro.lsm.block_cache import BlockCache
from repro.lsm.db import DB, HealthReport
from repro.lsm.env import DEVICE_PRESETS, DeviceModel, StorageEnv
from repro.lsm.faults import FaultInjectionEnv
from repro.lsm.memtable import MemTable
from repro.lsm.options import DBOptions
from repro.lsm.perf_context import QueryContext
from repro.lsm.repair import RepairOutcome, repair_store
from repro.lsm.scheduler import InlineScheduler
from repro.lsm.serving import (
    ServingHealth,
    ServingOptions,
    ServingStats,
    ShardedServer,
)
from repro.lsm.shard import ShardRouter
from repro.lsm.stats import PerfStats, Stopwatch
from repro.lsm.verify import VerificationReport, verify_version
from repro.lsm.write_batch import WriteBatch

__all__ = [
    "BlockCache",
    "DB",
    "DBOptions",
    "DEVICE_PRESETS",
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
    "VerificationReport",
    "WriteBatch",
    "repair_store",
    "verify_version",
]
