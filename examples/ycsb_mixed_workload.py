#!/usr/bin/env python3
"""Mixed YCSB-E workload under leveled compaction.

This example drives the store the way the paper's motivating applications
do — a scan-majority YCSB-E mix with interleaved point reads.  Every live
run carries its own filter, so each run on a read path is one more filter
that must answer "empty" cheaply and with a low FPR.

Run:  python examples/ycsb_mixed_workload.py
"""

import os
import shutil
import tempfile

from repro.bench import make_factory, run_workload
from repro.bench.endtoend import load_database
from repro.bench.report import format_table
from repro.lsm import DBOptions
from repro.workloads import WorkloadBuilder, generate_dataset

KEY_BITS = 64
NUM_KEYS = int(os.environ.get("REPRO_EXAMPLE_KEYS", "15000"))


def run_mix() -> tuple:
    dataset = generate_dataset(NUM_KEYS, KEY_BITS, seed=31, value_size=64)
    keys = [int(k) for k in dataset.keys]
    workload = WorkloadBuilder(keys, KEY_BITS, seed=32).workload_e(
        300, max_range_size=32, scan_fraction=0.95
    )
    options = DBOptions(
        key_bits=KEY_BITS,
        memtable_size_bytes=32 << 10,
        sst_size_bytes=128 << 10,
        max_bytes_for_level_base=512 << 10,
        device="ssd-scaled",
    )
    factory = make_factory("rosetta", KEY_BITS, 22, max_range=64,
                           range_size_histogram={16: 1})
    path = tempfile.mkdtemp(prefix="repro-ycsb-")
    try:
        db = load_database(path, dataset, factory, options,
                           write_path_fraction=0.3)
        runs = len(db.version.all_runs_newest_first())
        result = run_workload(db, workload)
        db.close()
        return (
            runs,
            f"{result.end_to_end_seconds * 1e3:.1f}",
            f"{result.fpr:.4f}",
            result.block_reads,
        )
    finally:
        shutil.rmtree(path, ignore_errors=True)


def main() -> None:
    print("YCSB-E mix (95% scans of 1-32 keys, 5% point reads), all empty")
    print("queries — the filters stand between every operation and the disk.\n")

    print(format_table(
        ("runs", "end_to_end_ms", "fpr", "block_reads"), [run_mix()],
        title="Rosetta under leveled compaction",
    ))


if __name__ == "__main__":
    main()
