"""The many-queries side of the range kernel choice: walk loop vs batch entry.

A range probe picks the pre-order walk or the frontier engine from the
call's dyadic interval count (``repro.core.rosetta.WALK_MAX_INTERVALS``).
The ledger's workloads hold the one-live-query side; this bench holds the
other: resolve a 10k-query batch of 64-key ranges against a multi-level
Rosetta with

* a loop of scalar ``may_contain_range`` calls (each one few intervals, so
  each one takes the walk: one Python recursion and one scalar Bloom probe
  per prefix),
* one ``may_contain_range_batch`` call (far past the crossover, so the
  engine: one bulk probe per level, shared prefixes probed once).

Results (throughputs, speedup, verdict agreement) go to
``BENCH_batch_range.json`` at the repo root.  The batch entry must clear a
5x speedup over the loop, and the answers must agree.

Runs standalone (``python benchmarks/bench_batch_range.py [--smoke]``) and
as a pytest test.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.rosetta import Rosetta
from repro.workloads.keygen import generate_dataset
from repro.workloads.ycsb import WorkloadBuilder

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_batch_range.json"

SPEEDUP_FLOOR = 5.0


def run_benchmark(
    num_keys: int = 50_000,
    num_queries: int = 10_000,
    max_range: int = 64,
    key_bits: int = 64,
    bits_per_key: float = 22.0,
    seed: int = 411,
) -> dict:
    """Build the filter, run both paths, return the result record."""
    dataset = generate_dataset(num_keys, key_bits, seed=seed)
    keys = [int(k) for k in dataset.keys]
    rosetta = Rosetta.build(
        keys,
        key_bits=key_bits,
        bits_per_key=bits_per_key,
        max_range=max_range,
        strategy="optimized",
    )
    workload = WorkloadBuilder(keys, key_bits, seed=seed + 1).empty_range_queries(
        num_queries, max_range
    )
    lows = [q.low for q in workload]
    highs = [q.high for q in workload]

    rosetta.stats.reset()
    start = time.perf_counter()
    scalar = [rosetta.may_contain_range(lo, hi) for lo, hi in zip(lows, highs)]
    scalar_seconds = time.perf_counter() - start
    scalar_probes = rosetta.stats.bloom_probes

    rosetta.stats.reset()
    start = time.perf_counter()
    batched = rosetta.may_contain_range_batch(lows, highs)
    batch_seconds = time.perf_counter() - start

    return {
        "num_keys": num_keys,
        "num_queries": num_queries,
        "max_range": max_range,
        "bits_per_key": bits_per_key,
        "num_levels": rosetta.num_levels,
        "positives": int(np.count_nonzero(batched)),
        "answers_agree": bool(
            np.array_equal(np.asarray(scalar, dtype=bool), batched)
        ),
        "scalar": {
            "seconds": scalar_seconds,
            "queries_per_second": num_queries / scalar_seconds,
            "bloom_probes": scalar_probes,
        },
        "batch": {
            "seconds": batch_seconds,
            "queries_per_second": num_queries / batch_seconds,
            "bloom_probes": rosetta.stats.bloom_probes,
            "bulk_probe_calls": rosetta.stats.bulk_probe_calls,
            "speedup_vs_scalar": scalar_seconds / batch_seconds,
        },
    }


def _emit(record: dict) -> None:
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    batch = record["batch"]
    print(
        f"{record['num_queries']} queries x {record['max_range']}-key ranges, "
        f"{record['num_levels']} levels\n"
        f"  walk loop   : {record['scalar']['queries_per_second']:>10.0f} q/s\n"
        f"  batch entry : {batch['queries_per_second']:>10.0f} q/s "
        f"({batch['speedup_vs_scalar']:.1f}x)\n"
        f"  answers agree: {record['answers_agree']}\n"
        f"  -> {RESULT_PATH}"
    )


def test_batch_range_speedup():
    """The acceptance gate: >=5x at 10k queries, answers identical."""
    record = run_benchmark()
    _emit(record)
    assert record["answers_agree"]
    assert record["batch"]["speedup_vs_scalar"] >= SPEEDUP_FLOOR


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes for CI: verifies agreement, skips the 5x gate",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        record = run_benchmark(num_keys=4000, num_queries=500)
    else:
        record = run_benchmark()
    _emit(record)
    if not record["answers_agree"]:
        print("FAIL: the batch entry disagrees with the walk loop", file=sys.stderr)
        return 1
    if not args.smoke and record["batch"]["speedup_vs_scalar"] < SPEEDUP_FLOOR:
        print(f"FAIL: speedup below {SPEEDUP_FLOOR}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
