"""Leveled compaction — merge runs downward, rebuilding filters.

Policy (RocksDB leveled, per-file granularity):

* L0 reaching ``level0_file_num_compaction_trigger`` files merges all of
  L0 (L0 files overlap arbitrarily) with the L1 runs intersecting L0's key
  span — the *overlap closure* — into fresh L1 files of at most
  ``sst_size_bytes``.  While that closure holds more than
  ``LEVEL_SIZE_RATIO`` times L0's bytes, L0 instead merges into itself:
  one new L0 file, tombstones kept (an *intra-L0* merge).  Pushing a
  sliver of L0 into L1 would rewrite the whole closure for it.
* A level exceeding its size target (:func:`~repro.lsm.version.level_target_bytes`)
  merges down in bounded *windows*: up to :data:`MAX_COMPACTION_INPUT_FILES`
  contiguous source runs (oldest window first) plus their overlap closure
  at the target level, so one oversize level drains in several bounded
  merges instead of one giant one.
* Candidates are ordered by a *debt score* — L0 run count over its
  trigger (weighted to always dominate) before bytes-over-target ratio of
  the deeper levels — not by fixed level order.
* Tombstones survive until the output is the bottom-most populated level,
  where they are dropped.  Level >= 1 runs are key-partitioned, so the
  whole-level rule is exact for partial windows too: any older version of
  a key in the window lives in the window itself, its closure, or a
  deeper level.

"During background compactions, a new filter instance is built for the
merged content of the new SST, while the filter instances for the old SSTs
are destroyed" (§4) — old files are deleted and their block-cache entries
dropped (a run's filter goes with its reader), and the new SSTs get fresh
filters built by the configured factory (charged to the Fig. 6
construction counters).

Job API
-------
The store's writer (:class:`~repro.lsm.writer.Writer`) runs every
maintenance job under its write lock, one at a time, so nothing edits the version between planning a job and installing it.  A
job goes through three phases:

``plan(version) -> CompactionJob | None``
    Read of the tree shape: the highest-debt trigger-satisfying merge
    (L0 debt always first, then deeper levels by bytes-over-target ratio,
    windows within a level oldest-first).  ``forced_l0_job`` and
    ``full_compaction_job`` build the explicit-``compact()`` /
    ``force_full_compaction()`` variants regardless of triggers.  The
    caller plans while holding the write lock, so every input is live
    when the job installs.
``execute(job) -> list[Run]``
    The expensive part — merge the input runs into fresh output SSTs, on
    the thread that calls it.  Touches no shared version state.
``apply(version, job, outputs)``
    Pure metadata edit: swap inputs for outputs on a ``Version`` *clone*
    under the writer's ``_mutex``.  The caller persists the manifest and
    installs the clone atomically; input files are destroyed afterwards,
    once no reader still references them, via :meth:`destroy_runs`.

Flush, compaction and ingest allocate file names through
:meth:`next_file_name`, and recovery raises the counter past every file on
disk.  The counter needs no lock of its own: every allocation runs under
the writer's write lock, and recovery is single-threaded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator

from repro.filters.base import FilterFactory
from repro.lsm.block_cache import BlockCache
from repro.lsm.env import StorageEnv
from repro.lsm.format import ValueTag, sst_file_number
from repro.lsm.iterators import MergingIterator
from repro.lsm.options import DBOptions
from repro.lsm.sstable import SSTReader, SSTWriter
from repro.lsm.version import (
    LEVEL_SIZE_RATIO, NUM_LEVELS, Run, Version, level_target_bytes,
)

__all__ = ["Compactor", "CompactionJob", "MAX_COMPACTION_INPUT_FILES"]

#: Maximum source-level runs per leveled compaction window (RocksDB's
#: per-file picking).  An oversize level is drained in windows of this many
#: contiguous runs (plus their target-level overlap closure), so one merge
#: rewrites a bounded slice of the level instead of all of it — which is
#: what ``write_amp`` pays for.
MAX_COMPACTION_INPUT_FILES = 4


@dataclass
class CompactionJob:
    """One planned merge: what goes in, where the output lands.

    ``kind`` is one of ``intra-l0`` (all of L0 -> one L0 file, while L1
    dwarfs L0), ``leveled-l0`` (all of L0 + its L1 overlap closure -> L1),
    ``leveled-level`` (a window of Ln runs + its Ln+1 overlap closure ->
    Ln+1), or ``full`` (everything -> the bottom level).  The kind only
    names the job; ``output_level`` 0 is what makes an install replace
    its inputs in L0.
    ``inputs`` are recency-ordered, which is what makes the merging
    iterator's newest-wins shadowing correct.  ``debt_score`` is the
    picker's priority (diagnostics only).
    """

    kind: str
    inputs: list[Run]
    output_level: int
    drop_tombstones: bool
    source_level: int = 0
    debt_score: float = 0.0


#: ``sst_<level>_<number>.sst`` — the number is allocation order, so the
#: lowest number in a window is its age (oldest-first window tiebreak).
#: Shared with SSTWriter, which mixes it into the per-file filter salt.
_file_number = sst_file_number


def _runs_span(runs: Iterable[Run]) -> tuple[bytes | None, bytes | None]:
    """Inclusive key span covering every run, or (None, None) when empty."""
    low: bytes | None = None
    high: bytes | None = None
    for run in runs:
        meta = run.reader.meta
        if low is None or meta.min_key < low:
            low = meta.min_key
        if high is None or meta.max_key > high:
            high = meta.max_key
    return low, high


class Compactor:
    """Plans and runs flush-triggered and size-triggered compactions."""

    def __init__(
        self,
        env: StorageEnv,
        options: DBOptions,
        cache: BlockCache,
        filter_factory_provider: Callable[[], FilterFactory | None] | None = None,
    ) -> None:
        self._env = env
        self._options = options
        self._cache = cache
        self._next_file_number = 1
        # The auto-tuner can swap the factory between compactions (§2.4);
        # resolve it lazily at each compaction.
        self._filter_factory_provider = filter_factory_provider or (
            lambda: options.filter_factory
        )
        #: Runs :meth:`write_runs` wrote that no manifest names yet: what a
        #: job that fails before its install must delete.
        self.unreferenced: list[Run] = []

    def advance_file_number(self, past: int) -> None:
        """Never emit a file number <= ``past`` (recovery collision guard)."""
        self._next_file_number = max(self._next_file_number, past + 1)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, version: Version) -> CompactionJob | None:
        """The highest-debt trigger-satisfying compaction, or None."""
        return next(self._candidates(version), None)

    #: Weight making any triggered L0 candidate outrank any size-triggered
    #: deeper level: every L0 run is one more iterator on every read,
    #: bytes-over-target only costs read amplification at depth.
    _L0_DEBT_WEIGHT = 1_000_000.0

    def _candidates(self, version: Version) -> Iterator[CompactionJob]:
        """Trigger-satisfying merges, highest debt score first.

        L0's score is its run count over the trigger, weighted to dominate
        every size-triggered level; a deeper level scores its
        bytes-over-target ratio (ties broken shallowest-first).  Each
        oversize level contributes one job per
        :data:`MAX_COMPACTION_INPUT_FILES`-wide source window (oldest window
        first).
        """
        scored: list[tuple[float, int, list[CompactionJob]]] = []
        trigger = self._options.level0_file_num_compaction_trigger
        if len(version.level0) >= trigger:
            job = self._l0_job(version)
            job.debt_score = self._L0_DEBT_WEIGHT * len(version.level0) / trigger
            scored.append((job.debt_score, 0, [job]))
        base = self._options.max_bytes_for_level_base
        for level in range(1, NUM_LEVELS - 1):
            target = level_target_bytes(base, level)
            size = version.level_size_bytes(level)
            if size > target:
                score = size / target
                jobs = self._leveled_window_jobs(version, level)
                for job in jobs:
                    job.debt_score = score
                scored.append((score, level, jobs))
        scored.sort(key=lambda entry: (-entry[0], entry[1]))
        for _, _, jobs in scored:
            yield from jobs

    def _leveled_window_jobs(
        self, version: Version, level: int
    ) -> list[CompactionJob]:
        """Per-file jobs draining one oversize level.

        The level's sorted runs are cut into contiguous windows of up to
        :data:`MAX_COMPACTION_INPUT_FILES`; each window pulls its overlap
        closure at the target level (every target run intersecting the
        window's key span, nothing else).  Windows are ordered oldest-first
        (lowest allocated file number), the RocksDB-style tiebreak that
        drains long-lived debt before fresh spill.
        """
        source = version.level_runs(level)
        if not source:
            return []
        width = MAX_COMPACTION_INPUT_FILES
        windows = [
            source[start:start + width]
            for start in range(0, len(source), width)
        ]
        windows.sort(
            key=lambda window: min(_file_number(run.name) for run in window)
        )
        drop = version.max_populated_level() <= level + 1
        jobs = []
        for window in windows:
            span_low, span_high = _runs_span(window)
            closure = version.overlap_closure(level + 1, span_low, span_high)
            jobs.append(
                CompactionJob(
                    kind="leveled-level",
                    inputs=window + closure,
                    output_level=level + 1,
                    drop_tombstones=drop,
                    source_level=level,
                )
            )
        return jobs

    def _l0_job(self, version: Version) -> CompactionJob:
        """L0 at its trigger: into L1, or into itself while L1 dwarfs it.

        The threshold is the size ratio the tree keeps between every other
        pair of levels.  The intra-L0 merge needs two inputs and writes one
        file, so each one lowers the L0 file count and planning runs dry.
        """
        job = self.forced_l0_job(version)
        l0 = version.level_runs(0)
        l0_bytes = sum(run.file_size for run in l0)
        closure_bytes = sum(run.file_size for run in job.inputs[len(l0):])
        if len(l0) >= 2 and l0_bytes * LEVEL_SIZE_RATIO < closure_bytes:
            return CompactionJob(
                kind="intra-l0", inputs=l0, output_level=0, drop_tombstones=False
            )
        return job

    def forced_l0_job(self, version: Version) -> CompactionJob | None:
        """An L0 merge regardless of the trigger (explicit ``compact()``)."""
        if not version.level0:
            return None
        l0 = version.level_runs(0)
        span_low, span_high = _runs_span(l0)
        return CompactionJob(
            kind="leveled-l0",
            inputs=l0 + version.overlap_closure(1, span_low, span_high),
            output_level=1,
            drop_tombstones=version.max_populated_level() <= 1,
            source_level=0,
        )

    def full_compaction_job(self, version: Version) -> CompactionJob | None:
        """Merge every run into one sorted bottom run, dropping tombstones."""
        inputs = version.all_runs_newest_first()
        if not inputs:
            return None
        return CompactionJob(
            kind="full",
            inputs=inputs,
            output_level=max(1, version.max_populated_level()),
            drop_tombstones=True,
            source_level=0,
        )

    # ------------------------------------------------------------------
    # Execution (no shared version state touched)
    # ------------------------------------------------------------------
    def execute(self, job: CompactionJob) -> list[Run]:
        """Merge the job's inputs into fresh output SSTs (the slow part)."""
        stats = self._env.stats
        start_ns = time.perf_counter_ns()
        stats.add(
            compactions=1,
            compaction_bytes_read=sum(run.file_size for run in job.inputs),
        )
        outputs = self._merge(job)
        stats.add(
            compaction_bytes_written=sum(run.file_size for run in outputs),
            compaction_time_ns=time.perf_counter_ns() - start_ns,
        )
        return outputs

    def _merge(self, job: CompactionJob) -> list[Run]:
        """One newest-wins pass over the job's inputs, cut into SSTs."""
        merged = MergingIterator(
            (priority, run.reader.iterate_from(b""))
            for priority, run in enumerate(job.inputs)
        )
        if job.drop_tombstones:
            merged = (entry for entry in merged if entry[1] != ValueTag.DELETE)
        return list(self.write_runs(
            merged, job.output_level, self._filter_factory_provider(),
            cut=job.output_level > 0,  # an intra-L0 merge writes one file
        ))

    def write_runs(
        self,
        entries: Iterable[tuple[bytes, int, bytes]],
        level: int,
        factory: FilterFactory | None,
        cut: bool = True,
    ) -> Iterator[Run]:
        """Write sorted ``entries`` as fresh SSTs for ``level``, yielding
        each run once its file is written.

        The one writer loop of flush, compaction and ingest: with ``cut``, a
        file ends once it reaches ``sst_size_bytes``; without, everything
        goes into one file.  A file name is allocated only once the file's
        first entry exists, so an empty stream writes nothing.  Each run is
        also added to :attr:`unreferenced` until a manifest names it.
        """
        limit = self._options.sst_size_bytes if cut else None
        entries = iter(entries)
        for first in entries:
            writer = SSTWriter(
                self._env,
                self.next_file_name(level),
                self._options,
                filter_factory=factory,
            )
            writer.extend(chain((first,), entries), limit)
            reader = SSTReader(self._env, writer.finish(), self._cache)
            run = Run(reader=reader, level=level)
            self.unreferenced.append(run)
            yield run

    # ------------------------------------------------------------------
    # Installation (caller holds the writer's _mutex, version is a clone)
    # ------------------------------------------------------------------
    def apply(
        self, version: Version, job: CompactionJob, outputs: list[Run]
    ) -> None:
        """Swap the job's inputs for ``outputs`` in ``version``.

        L0 outputs take their inputs' place in L0's recency order
        (:meth:`Version.install_level0`).  Otherwise: drop the input names
        from L0 and from every level, then add the outputs to the output
        level (:meth:`Version.install_level` re-checks that its files do
        not overlap).  Removal is by file name (not "clear the level"), so
        the runs of a level outside a window's inputs survive its install.
        """
        input_names = {run.name for run in job.inputs}
        if job.output_level == 0:
            version.install_level0(input_names, outputs)
            return
        version.level0 = [
            run for run in version.level0 if run.name not in input_names
        ]
        for level in list(version.levels):
            version.levels[level] = [
                run for run in version.levels[level] if run.name not in input_names
            ]
        version.install_level(
            job.output_level, version.level_runs(job.output_level) + outputs
        )

    # ------------------------------------------------------------------
    # Machinery
    # ------------------------------------------------------------------
    def destroy_runs(self, names: Iterable[str]) -> None:
        """Delete runs' files by name and purge their cached blocks (their
        filter state went with their readers)."""
        for name in names:
            self._cache.remove_file(name)
            self._env.delete_file(name)

    def next_file_name(self, level: int) -> str:
        """Allocate a fresh SST file name (flush, compaction and ingest)."""
        number = self._next_file_number
        self._next_file_number += 1
        return f"sst_{level}_{number:08d}.sst"
