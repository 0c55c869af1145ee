"""DB configuration mirroring the RocksDB knobs the paper tunes (§4–5).

The paper's integration section calls out specific options; each has a
direct counterpart here:

* ``level0_file_num_compaction_trigger=3`` →
  :attr:`DBOptions.level0_file_num_compaction_trigger` (bounding the L0
  iterator count that dominates empty-query CPU);
* ``max_bytes_for_level_base`` → :attr:`DBOptions.max_bytes_for_level_base`
  (restricting L0 growth so iterators spawn per level, not per file);
* ``cache_index_and_filter_blocks=true`` → always on (filter and index
  blocks go through the block cache); its ``_with_high_priority``
  companion and ``pin_l0_filter_and_index_blocks_in_cache`` → the
  block-cache priority flags;
* per-SST full filters (block-based filters are deprecated) → one filter
  instance per SST file, rebuilt at compaction;
* leveled compaction over RocksDB's default ``num_levels=7`` → not knobs:
  the paper runs nothing else, so the level count is
  :data:`repro.lsm.version.NUM_LEVELS` and :mod:`repro.lsm.compaction`
  has one policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import InvalidOptionsError
from repro.filters.base import FilterFactory
from repro.lsm.env import DeviceModel

__all__ = ["DBOptions"]


@dataclass
class DBOptions:
    """Tuning knobs for :class:`repro.lsm.db.DB`.

    Defaults are scaled-down analogues of the paper's RocksDB setup —
    small enough that benchmarks run in seconds, structurally identical
    (multiple levels, 3-file L0, per-SST filters).
    """

    #: Key domain width in bits (the paper uses 64-bit keys).
    key_bits: int = 64

    #: Memtable (write buffer) capacity before a flush, in bytes.
    memtable_size_bytes: int = 1 << 20

    #: Target size of one SST file (Fig. 6(A) varies this).
    sst_size_bytes: int = 1 << 20

    #: Data-block size inside an SST (RocksDB default 4 KiB).
    block_size_bytes: int = 4096

    #: Number of L0 files that triggers an L0->L1 compaction (paper: 3).
    level0_file_num_compaction_trigger: int = 3

    #: Target size of L1; level i holds base * ratio^(i-1) bytes.
    max_bytes_for_level_base: int = 4 << 20

    #: LSM size ratio between adjacent levels (RocksDB default 10).
    level_size_ratio: int = 10

    #: Filter recipe applied to every new SST (None = fence pointers only).
    filter_factory: FilterFactory | None = None

    # -- Adversarial robustness -----------------------------------------
    #: Store-wide seed for per-SST filter salting.  0 (default) disables
    #: salting and keeps filter blocks byte-identical to the historical
    #: format.  Nonzero: every SST's filter hashes are re-keyed with
    #: ``derive_filter_salt(seed, file_number)``, so a compaction rebuild
    #: (fresh file number) invalidates any false positives an adversary
    #: has learned.  Requires a salt-capable (hashed) filter recipe;
    #: structural recipes like SuRF are rejected at build time.
    filter_salt_seed: int = 0

    #: Enable the FP-feedback attack detector: per-run false-positive
    #: counters in the filter dictionary flag runs whose observed FPR
    #: exceeds ``quarantine_fpr_multiple`` times their design FPR.
    #: Flagged runs surface in ``DB.health()`` and their compaction is
    #: prioritized so the (salted) rebuild clears the attack.
    quarantine_filters: bool = False

    #: Observed-FPR multiple of the design FPR at which a run is flagged.
    quarantine_fpr_multiple: float = 8.0

    #: Minimum rejectable probes (negatives + false positives) a run must
    #: accumulate before it can be flagged — keeps small-sample noise from
    #: quarantining healthy filters.
    quarantine_min_probes: int = 50

    #: Block cache capacity in bytes (0 disables caching).
    block_cache_bytes: int = 8 << 20

    #: Give filter/index blocks eviction priority over data blocks (they
    #: always live in the block cache: the paper's setup runs with
    #: ``cache_index_and_filter_blocks=true``, so that is not a knob).
    cache_index_and_filter_blocks_with_high_priority: bool = True

    #: Pin L0 filter and index blocks so empty queries stay CPU-only.
    pin_l0_filter_and_index_blocks_in_cache: bool = True

    #: Keep deserialized filters in the §4 filter dictionary (ablation
    #: point: switching this off re-deserializes on every query).
    use_filter_dictionary: bool = True

    #: Storage device model name or instance (see repro.lsm.env).
    device: str | DeviceModel = "memory"

    #: Write-ahead logging (disable for bulk loads, as in the paper's setup).
    #: Every append ends with a durability barrier
    #: (:meth:`StorageEnv.sync_file`): the write-acknowledgement contract the
    #: crash harness verifies — a power cut never loses an acked write.
    use_wal: bool = True

    #: Number of entries between restart points in a data block.  Read
    #: side: the longest in-block walk of a point read, which bisects the
    #: restart points and scans one interval.  Write side: every restart
    #: costs 4 bytes plus one key stored without prefix compression.
    block_restart_interval: int = 16

    # -- Online fault handling ------------------------------------------
    #: Extra attempts a transiently failing block read gets before the
    #: error propagates (0 disables retrying).  Each retry charges a
    #: modeled backoff (``repro.lsm.env.RETRY_BACKOFF_NS``, doubling per
    #: attempt) into ``PerfStats.block_read_time_ns``; no real sleep.
    io_retry_attempts: int = 3

    #: fsync manifest replacements (atomicity comes from ``os.replace``
    #: either way; fsync additionally orders it against power loss on a
    #: real device — off by default to keep benchmarks fast).
    manifest_fsync: bool = False

    #: Storage-environment constructor ``(root, device, stats) -> StorageEnv``
    #: (None = plain :class:`~repro.lsm.env.StorageEnv`).  The hook the
    #: fault-injection harness uses to put a hostile device under a DB.
    env_factory: object | None = None

    # -- Background maintenance & write backpressure --------------------
    #: Worker threads for background flush/compaction.  0 (the default)
    #: runs all maintenance inline on the writing thread, fully
    #: synchronously.  With workers, a full active memtable
    #: seals into the immutable queue (the WAL rotates with it) and writes
    #: continue while a worker flushes it.
    max_background_jobs: int = 0

    #: Ceiling on sealed-but-unflushed memtables.  Reaching it is a *stop*
    #: condition: writers block until a flush drains one (RocksDB's
    #: ``max_write_buffer_number`` analogue).
    max_immutable_memtables: int = 2

    #: L0 run count at which writes are *slowed*: each write is admitted
    #: immediately but charged up to 1 ms of modeled delay
    #: (``PerfStats.write_delay_time_ns``; no real sleep).
    level0_slowdown_writes_trigger: int = 8

    #: L0 run count at which writes *stop*: the writer blocks (bounded by
    #: ``write_stall_timeout_s``) until compaction brings L0 back down.
    #: Only engages with ``max_background_jobs > 0`` — inline maintenance
    #: can never be behind its own writer.
    level0_stop_writes_trigger: int = 12

    #: Upper bound on one stop-trigger block before the write fails with
    #: :class:`~repro.errors.WriteStallTimeoutError`.
    write_stall_timeout_s: float = 10.0

    #: Maximum source-level runs per leveled compaction window (RocksDB's
    #: per-file picking).  An oversize level is drained in windows of this
    #: many contiguous runs (plus their target-level overlap closure), so
    #: several disjoint jobs in the same level pair can run concurrently
    #: instead of one whole-level merge.
    max_compaction_input_files: int = 4

    #: Scheduler constructor ``(options) -> scheduler`` overriding the
    #: default choice (None = InlineScheduler for 0 jobs, ThreadPoolScheduler
    #: otherwise).  The torture harness injects DeterministicScheduler here.
    scheduler_factory: object | None = None

    def validate(self) -> None:
        """Raise :class:`InvalidOptionsError` on inconsistent settings."""
        if self.key_bits < 1 or self.key_bits > 512:
            raise InvalidOptionsError(f"key_bits out of range: {self.key_bits}")
        if self.memtable_size_bytes < 1024:
            raise InvalidOptionsError("memtable_size_bytes must be >= 1 KiB")
        if self.sst_size_bytes < self.block_size_bytes:
            raise InvalidOptionsError("sst_size_bytes must be >= block_size_bytes")
        if self.block_size_bytes < 128:
            raise InvalidOptionsError("block_size_bytes must be >= 128")
        if self.level0_file_num_compaction_trigger < 1:
            raise InvalidOptionsError(
                "level0_file_num_compaction_trigger must be >= 1"
            )
        if self.level_size_ratio < 2:
            raise InvalidOptionsError("level_size_ratio must be >= 2")
        if self.block_restart_interval < 1:
            raise InvalidOptionsError("block_restart_interval must be >= 1")
        if not 0 <= self.filter_salt_seed < 1 << 64:
            raise InvalidOptionsError(
                f"filter_salt_seed must be a 64-bit value, "
                f"got {self.filter_salt_seed}"
            )
        if (
            self.filter_salt_seed
            and self.filter_factory is not None
            and not self.filter_factory.salt_capable
        ):
            raise InvalidOptionsError(
                f"filter_salt_seed is set but filter recipe "
                f"{self.filter_factory.name!r} is not salt-capable "
                "(structural filters like SuRF cannot be re-keyed)"
            )
        if self.quarantine_fpr_multiple <= 1.0:
            raise InvalidOptionsError(
                "quarantine_fpr_multiple must be > 1.0"
            )
        if self.quarantine_min_probes < 1:
            raise InvalidOptionsError("quarantine_min_probes must be >= 1")
        if self.io_retry_attempts < 0:
            raise InvalidOptionsError("io_retry_attempts must be >= 0")
        if self.env_factory is not None and not callable(self.env_factory):
            raise InvalidOptionsError("env_factory must be callable or None")
        if self.max_background_jobs < 0:
            raise InvalidOptionsError("max_background_jobs must be >= 0")
        if self.max_compaction_input_files < 1:
            raise InvalidOptionsError(
                "max_compaction_input_files must be >= 1"
            )
        if self.max_immutable_memtables < 1:
            raise InvalidOptionsError("max_immutable_memtables must be >= 1")
        if self.level0_slowdown_writes_trigger < 1:
            raise InvalidOptionsError(
                "level0_slowdown_writes_trigger must be >= 1"
            )
        if self.level0_stop_writes_trigger < self.level0_slowdown_writes_trigger:
            raise InvalidOptionsError(
                "level0_stop_writes_trigger must be >= "
                "level0_slowdown_writes_trigger"
            )
        if self.write_stall_timeout_s <= 0:
            raise InvalidOptionsError("write_stall_timeout_s must be > 0")
        if self.scheduler_factory is not None and not callable(
            self.scheduler_factory
        ):
            raise InvalidOptionsError("scheduler_factory must be callable or None")

    @property
    def key_width_bytes(self) -> int:
        """Fixed on-disk key width (keys are stored big-endian)."""
        return (self.key_bits + 7) // 8

    def level_target_bytes(self, level: int) -> int:
        """Capacity target for ``level`` (level 0 is file-count driven)."""
        if level <= 0:
            raise InvalidOptionsError("level targets are defined for level >= 1")
        return self.max_bytes_for_level_base * (
            self.level_size_ratio ** (level - 1)
        )
