"""DB configuration mirroring the RocksDB knobs the paper tunes (§4–5).

The paper's integration section calls out specific options; each has a
direct counterpart here:

* ``level0_file_num_compaction_trigger=3`` →
  :attr:`DBOptions.level0_file_num_compaction_trigger` (bounding the L0
  iterator count that dominates empty-query CPU);
* ``max_bytes_for_level_base`` → :attr:`DBOptions.max_bytes_for_level_base`
  (restricting L0 growth so iterators spawn per level, not per file);
* ``cache_index_and_filter_blocks=true``, with high priority, and L0's
  pinned → not knobs, and no cache space: every run's index and filter
  stay decoded on its ``SSTReader`` for the run's life, so
  :attr:`DBOptions.block_cache_bytes` budgets data blocks only
  (:mod:`repro.lsm.block_cache`); with ``use_filter_dictionary=False``
  every probe reads the filter block from the device;
* per-SST full filters (block-based filters are deprecated) → one filter
  instance per SST file, rebuilt at compaction;
* leveled compaction over RocksDB's default ``num_levels=7`` and size
  ratio 10 → not knobs: the paper runs nothing else, so they are
  :data:`repro.lsm.version.NUM_LEVELS` and
  :data:`repro.lsm.version.LEVEL_SIZE_RATIO`, and
  :mod:`repro.lsm.compaction` has one policy.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    #: Target size of L1; level i holds ``base * LEVEL_SIZE_RATIO^(i-1)``
    #: bytes (:func:`repro.lsm.version.level_target_bytes`).
    max_bytes_for_level_base: int = 4 << 20

    #: Filter recipe applied to every new SST (None = fence pointers only).
    filter_factory: FilterFactory | None = None

    # -- Adversarial robustness -----------------------------------------
    #: Store-wide seed for per-SST filter salting.  0 (default) disables
    #: salting and keeps filter blocks byte-identical to the historical
    #: format.  Nonzero: every SST's filter hashes are re-keyed with
    #: ``derive_filter_salt(seed, file_number)``, so a compaction rebuild
    #: (fresh file number) or a quarantine rebuild (next generation)
    #: invalidates any false positives an adversary has learned.  Requires a salt-capable (hashed) filter recipe;
    #: structural recipes like SuRF are rejected at build time.
    filter_salt_seed: int = 0

    #: Enable the FP-feedback attack detector: false-positive counters on
    #: each run's reader flag runs whose false positives are too many to
    #: be chance under their filter's design FPR
    #: (``SSTReader.record_outcome``).  Flagged runs surface in
    #: ``DB.health()``, and the writer's next maintenance point rebuilds
    #: each one's filter in place (next salt generation, bonus bits; no
    #: SST written, the rebuilt filter kept in memory only).
    quarantine_filters: bool = False

    #: Block cache capacity in bytes (0 disables caching).
    block_cache_bytes: int = 8 << 20

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
        if self.max_bytes_for_level_base < 1:
            raise InvalidOptionsError("max_bytes_for_level_base must be >= 1")
        if self.block_cache_bytes < 0:
            raise InvalidOptionsError("block_cache_bytes must be >= 0")
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
        if self.io_retry_attempts < 0:
            raise InvalidOptionsError("io_retry_attempts must be >= 0")
        if self.env_factory is not None and not callable(self.env_factory):
            raise InvalidOptionsError("env_factory must be callable or None")

    @property
    def key_width_bytes(self) -> int:
        """Fixed on-disk key width (keys are stored big-endian)."""
        return (self.key_bits + 7) // 8
