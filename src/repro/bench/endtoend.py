"""End-to-end workload runner inside the LSM store (Fig. 5, 6, 8, 11).

Loads a dataset into a :class:`~repro.lsm.db.DB` (bulk-ingesting the bulk
into deep levels and pushing a slice through the write path so L0 and the
tree shape look like a live store), drives a query workload, and reports
the paper's cost taxonomy: total latency, modeled I/O time, and the CPU
sub-costs (filter probe, deserialization, serialization, residual seek).
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from repro.filters.base import FilterFactory
from repro.lsm.db import DB
from repro.lsm.options import DBOptions
from repro.lsm.stats import PerfStats
from repro.workloads.keygen import Dataset, synthesize_value
from repro.workloads.ycsb import Workload

__all__ = ["EndToEndResult", "load_database", "run_workload", "scratch_db"]


@dataclass
class EndToEndResult:
    """Workload execution summary (the Fig. 5 stacked bars, in numbers)."""

    workload: str
    total_seconds: float
    io_seconds: float          # modeled device time (block_read_time)
    filter_probe_seconds: float
    deserialize_seconds: float
    serialize_seconds: float
    residual_seek_seconds: float
    block_reads: int
    filter_probes: int
    filter_negatives: int
    false_positives: int
    true_positives: int
    queries: int
    metadata: dict = field(default_factory=dict)
    #: False for a store opened without a filter factory (the fence-pointer
    #: baseline): its runs are read unasked, so the store records no filter
    #: verdicts for them at all.
    filtered: bool = True

    @property
    def cpu_seconds(self) -> float:
        """Sum of the attributed CPU sub-costs."""
        return (
            self.filter_probe_seconds
            + self.deserialize_seconds
            + self.serialize_seconds
            + self.residual_seek_seconds
        )

    @property
    def fpr(self) -> float:
        """Per-run false positive rate among rejectable probes.

        1.0 for the fence-pointer baseline: with no filter to ask, no read
        of a run that holds nothing in range is ever avoided.
        """
        if not self.filtered:
            return 1.0
        rejectable = self.filter_negatives + self.false_positives
        if rejectable == 0:
            return 0.0
        return self.false_positives / rejectable

    @property
    def end_to_end_seconds(self) -> float:
        """Measured wall time plus modeled device time.

        The paper's latencies are wall-clock on real devices; ours separate
        real CPU from modeled I/O, so the end-to-end figure is their sum.
        """
        return self.total_seconds + self.io_seconds


def load_database(
    path: str,
    dataset: Dataset,
    filter_factory: FilterFactory | None,
    options: DBOptions | None = None,
    write_path_fraction: float = 0.02,
) -> DB:
    """Create and load a DB with a realistic multi-level shape.

    Most of the dataset is bulk-ingested into a deep level; the last
    ``write_path_fraction`` goes through put/flush/compaction so L0 holds
    live runs and upper levels exist — the shape the paper's queries see.
    """
    if options is None:
        options = DBOptions(key_bits=dataset.key_bits)
    options.filter_factory = filter_factory
    options.use_wal = False  # bulk loads, as in the paper's setup
    db = DB(path, options)

    keys = dataset.keys
    split = max(0, int(len(keys) * (1.0 - write_path_fraction)))
    bulk, trickle = keys[:split], keys[split:]
    if len(bulk):
        db.ingest(
            (int(k), synthesize_value(int(k), dataset.value_size)) for k in bulk
        )
    for key in trickle:
        db.put(int(key), synthesize_value(int(key), dataset.value_size))
    db.flush()
    return db


def run_workload(db: DB, workload: Workload) -> EndToEndResult:
    """Execute every query of ``workload`` and report the cost breakdown."""
    before = db.stats.snapshot()
    start = time.perf_counter()
    for query in workload:
        if query.kind == "point":
            db.get(query.low)
        else:
            db.range_query(query.low, query.high)
    total_seconds = time.perf_counter() - start
    delta = db.stats.diff(before)
    return _result_from_stats(
        workload, total_seconds, delta,
        filtered=db.options.filter_factory is not None,
    )


def _result_from_stats(
    workload: Workload, total_seconds: float, delta: PerfStats, filtered: bool
) -> EndToEndResult:
    return EndToEndResult(
        workload=workload.description,
        total_seconds=total_seconds,
        io_seconds=delta.block_read_time_ns / 1e9,
        filter_probe_seconds=delta.filter_probe_ns / 1e9,
        deserialize_seconds=delta.deserialize_ns / 1e9,
        serialize_seconds=delta.serialize_ns / 1e9,
        residual_seek_seconds=delta.residual_seek_ns / 1e9,
        block_reads=delta.block_reads,
        filter_probes=delta.filter_probes,
        filter_negatives=delta.filter_negatives,
        false_positives=delta.filter_false_positives,
        true_positives=delta.filter_true_positives,
        queries=len(workload),
        metadata=dict(workload.metadata),
        filtered=filtered,
    )


class scratch_db:
    """Context manager: a loaded DB in a temporary directory.

    >>> with scratch_db(dataset, factory) as db:   # doctest: +SKIP
    ...     result = run_workload(db, workload)
    """

    def __init__(
        self,
        dataset: Dataset,
        filter_factory: FilterFactory | None,
        options: DBOptions | None = None,
        write_path_fraction: float = 0.02,
    ) -> None:
        self._dataset = dataset
        self._factory = filter_factory
        self._options = options
        self._fraction = write_path_fraction
        self._path: str | None = None
        self._db: DB | None = None

    def __enter__(self) -> DB:
        self._path = tempfile.mkdtemp(prefix="repro-bench-")
        self._db = load_database(
            self._path,
            self._dataset,
            self._factory,
            self._options,
            self._fraction,
        )
        return self._db

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._db is not None:
            try:
                self._db.close()
            finally:
                self._db = None
        if self._path is not None:
            shutil.rmtree(self._path, ignore_errors=True)
            self._path = None
