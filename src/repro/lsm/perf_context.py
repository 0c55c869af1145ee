"""Per-query performance context — the RocksDB ``PerfContext`` analogue.

``PerfStats`` aggregates over a DB's lifetime; debugging a *single* slow
query needs per-operation numbers: how many runs were considered, how many
filters answered negative, how many blocks were actually read.  A read
counts everything it observes into the one :class:`QueryContext` it owns
(one call, one thread: plain attribute writes), and ``DB._publish`` folds
the finished context into ``PerfStats`` and the ``WorkloadTracker`` once
and exposes it as ``db.last_query``.  The block layer (``SSTReader``,
``StorageEnv``) is handed the context and counts a read's blocks on it the
same way, so every number is the query's own whatever other threads — a
compaction, a second reader, a nested read — do meanwhile.

The paper's §4 discussion ("the number of iterators is equal to the number
of SST files") is directly observable here: ``iterators_created`` counts
exactly the child iterators a query wired into its merge.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["QueryContext"]


@dataclass
class QueryContext:
    """Counters for one point, range, or batched multi-point query.

    ``kind="multi_point"`` aggregates a whole :meth:`DB.multi_get` batch
    into one context: ``low``/``high`` span the distinct keys requested,
    ``runs_considered`` counts the runs that received at least one batched
    probe, and the ``keys_requested`` / ``distinct_keys`` /
    ``memtable_hits`` trio describes the batch shape.  ``kind="scan"`` is
    :meth:`DB.iterator`'s unprobed scan, folded into ``PerfStats`` only.
    """

    kind: str = ""
    low: int = 0
    high: int = 0

    runs_considered: int = 0      # overlapping runs after fence pruning
    filter_calls: int = 0         # filter invocations (one per filtered run)
    filters_probed: int = 0       # verdicts asked for
    filter_negatives: int = 0
    filter_true_positives: int = 0   # positives the run's data confirmed
    filter_false_positives: int = 0  # positives the run's data refuted
    iterators_created: int = 0    # per-run child iterators actually opened
    blocks_read: int = 0          # block fetches from the device
    block_cache_hits: int = 0
    block_cache_misses: int = 0
    block_read_bytes: int = 0     # bytes those fetches returned
    block_read_time_ns: int = 0   # their modeled device latency
    results: int = 0              # live entries returned
    memtable_hit: bool = False
    filter_probe_ns: int = 0      # wall time inside the filters
    residual_seek_ns: int = 0     # range only: merge-advance wall time

    width: int = 0                # range only: clamped to the key domain
                                  # (what the filters were asked; 0 = missed)

    # Point reads: batch shape.
    keys_requested: int = 0       # input keys, duplicates included
    distinct_keys: int = 0        # lookups actually resolved
    memtable_hits: int = 0        # keys answered by the memtable alone
