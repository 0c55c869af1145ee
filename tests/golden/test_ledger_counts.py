"""The ledger's counts that repeat exactly, pinned as a tier-1 golden.

``read_blocks_per_op``, ``write_amp`` and ``space_amp`` of the three
single-client ledger workloads are functions of the seed alone, and so is
every count behind them.  This test builds each store the way
``benchmarks/ledger/run.py`` does (``Run.setup``), reopens it cold and
replays the fixed prefix of the seeded op stream, then checks every answer
against the ledger's model.  It runs no measured window and never spins the
calibrator, so it times nothing.  It imports ``benchmarks/ledger`` read-only,
as ``tools/profile_workload.py`` does.

Pinned per workload at seed 1, in ``counts.json``:

* the three end-to-end count metrics, and the integers they are ratios of;
* over the prefix (the ``PerfStats`` delta, plus what only the read's
  ``QueryContext`` and the filters carry): block reads, filter calls and
  verdicts, negatives, false positives, runs considered and Bloom probes;
* over the set-up: flushes, compactions, and the bytes and entries each
  compaction kind wrote (``profile_workload.py --phase setup``'s footer).

``serve-mixed`` stays out: its two clients interleave differently run to run.

A change that moves a count on purpose regenerates the file in the same diff
and names each moved count in CHANGES.md::

    PYTHONPATH=src python tests/golden/test_ledger_counts.py > tests/golden/counts.json
"""

from __future__ import annotations

import importlib
import json
import sys
import tempfile
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.filters.base import KeyFilter
from repro.lsm.compaction import Compactor

ROOT = Path(__file__).resolve().parents[2]
LEDGER = ROOT / "benchmarks" / "ledger"
GOLDEN = Path(__file__).with_name("counts.json")
SEED = 1
WORKLOADS = ("range-empty", "point-zipf", "scan-wide")
#: Every ``CompactionJob.kind``.
JOB_KINDS = ("intra-l0", "leveled-l0", "leveled-level", "full")
#: The ledger's modules; ``trace`` would shadow the standard library's.
_LEDGER_MODULES = ("run", "calibrate", "model", "trace", "workloads")


def import_ledger():
    """``benchmarks/ledger/run.py`` as a module, imported read-only.

    No bytecode is written into the benchmark's directory, and ``sys.path``
    and ``sys.modules`` are put back afterwards, so the ledger's top-level
    module names never leak into other tests.
    """
    saved_path = list(sys.path)
    saved_modules = {
        name: sys.modules.pop(name) for name in _LEDGER_MODULES if name in sys.modules
    }
    saved_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(LEDGER))
    try:
        return importlib.import_module("run")
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_bytecode
        for name in _LEDGER_MODULES:
            sys.modules.pop(name, None)
        sys.modules.update(saved_modules)


class _NoClock:
    """Stands in for the calibrator: set-up is loaded, not timed."""

    def spin(self) -> int:
        return 1

    def scale(self, before: int, after: int) -> float:
        return 1.0


class _Client:
    """The store as the ledger's direct client drives it, summing each
    read's ``runs_considered`` (a ``QueryContext`` count ``PerfStats`` does
    not keep)."""

    def __init__(self, db) -> None:
        self.db = db
        self.runs_considered = 0

    def _read(self, answer):
        self.runs_considered += self.db.last_query.runs_considered
        return answer

    def get(self, key):
        return self._read(self.db.get(key))

    def multi_get(self, keys):
        return self._read(self.db.multi_get(keys))

    def range_query(self, low, high):
        return self._read(self.db.range_query(low, high))

    def put(self, key, value):
        return self.db.put(key, value)


@contextmanager
def _by_job_kind(written: Counter, rewritten: Counter):
    """Add each compaction's output bytes and entries to its kind."""
    execute = Compactor.execute

    def counted(self, job):
        outputs = execute(self, job)
        written[job.kind] += sum(run.file_size for run in outputs)
        rewritten[job.kind] += sum(run.reader.meta.num_entries for run in outputs)
        return outputs

    Compactor.execute = counted
    try:
        yield
    finally:
        Compactor.execute = execute


def measure(ledger, name: str, work: Path) -> tuple[dict, list[str]]:
    """One set-up and the cold prefix of workload ``name``: its counts, and
    every answer the ledger's model rejects."""
    run = ledger.Run(name, SEED, False, work)
    run.calibrator = _NoClock()
    written: Counter = Counter()
    rewritten: Counter = Counter()
    with _by_job_kind(written, rewritten):
        store, path, _ = run.setup()
    setup = store.stats.snapshot()
    store = run.reopen_cold(store, path)
    try:
        before = store.stats.snapshot()
        client = _Client(store)
        prefix = ledger.run_slice(
            client, run.workload, run.model,
            run.stream.slice(run.workload.prefix_ops),
        )
        delta = store.stats.diff(before)
        # The store was reopened cold: every filter was deserialized during
        # the prefix, so its probe count is the prefix's.
        bloom_probes = sum(
            filt.probe_count()
            for r in store.version.all_runs_newest_first()
            if isinstance(filt := r.reader.resolved_filter, KeyFilter)
        )
        records = prefix["records"]
        problems = ledger.settle_and_check(store, run.model, records)
        puts = sum(1 for r in records if r[0] == ledger.PUT)
        bytes_written = setup.bytes_written + store.stats.bytes_written
        user_bytes = run.user_bytes(puts)
        live_keys = len(run.items) + puts
        sst_bytes = sum(r.file_size for r in store.version.all_runs_newest_first())
        counts = {
            "metrics": {
                "read_blocks_per_op": delta.block_reads / len(records),
                "write_amp": bytes_written / user_bytes,
                "space_amp": ledger.space_amp(store, live_keys, run.workload),
            },
            "prefix": {
                "ops": len(records),
                "block_reads": delta.block_reads,
                "filter_calls": delta.filter_batch_probes,
                "filter_verdicts": delta.filter_probes,
                "filter_negatives": delta.filter_negatives,
                "filter_false_positives": delta.filter_false_positives,
                "runs_considered": client.runs_considered,
                "bloom_probes": bloom_probes,
            },
            "setup": {
                "user_bytes": user_bytes,
                "bytes_written": bytes_written,
                "sst_bytes": sst_bytes,
                "flushes": setup.flushes,
                "compactions": setup.compactions,
                "bytes_by_kind": {kind: written[kind] for kind in JOB_KINDS},
                "entries_by_kind": {kind: rewritten[kind] for kind in JOB_KINDS},
            },
        }
    finally:
        store.close()
    return counts, problems


@pytest.fixture(scope="module")
def ledger():
    return import_ledger()


@pytest.mark.parametrize("name", WORKLOADS)
def test_counts_match_the_golden(ledger, name, tmp_path):
    counts, problems = measure(ledger, name, tmp_path)
    assert problems == []
    assert counts == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    ledger_run = import_ledger()
    golden = {}
    for workload in WORKLOADS:
        with tempfile.TemporaryDirectory(prefix="ledger-counts-") as scratch:
            golden[workload], wrong = measure(ledger_run, workload, Path(scratch))
        if wrong:
            sys.exit(f"{workload}: {len(wrong)} wrong answers, first: {wrong[0]}")
    print(json.dumps(golden, indent=2))
