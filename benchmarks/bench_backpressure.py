"""Write throughput and stall behavior: inline vs. background maintenance.

Drives an identical write-heavy workload (small memtable, aggressive L0
triggers — the store is permanently behind on maintenance) through two
configurations:

* ``inline`` — ``max_background_jobs=0``: every flush/compaction runs on
  the writing thread, fully synchronously;
* ``background`` — ``max_background_jobs=1``: one worker thread runs
  one job at a time, with RocksDB-style backpressure: full memtables
  seal into the immutable queue and writers are admitted, slowed
  (debt-proportional modeled delay charge of up to 1 ms), or stopped (a
  real bounded block) depending on maintenance debt.

Reported per configuration: wall-clock write throughput, the per-put
latency distribution (p50/p90/p99/max — backgrounding moves flush cost
out of the tail), and the stall counters (seals, slowdowns, stops, stall
time, modeled delay).  The answers are cross-checked: both stores must
agree on every key.  ``--check`` also requires every store to report
``stall_state == "none"`` once ``wait_idle()`` returned (the state is the
store's, not the last write's), the background store to have sealed and
run every flush on its worker, and — on full runs only — background
throughput of at least 0.9x inline.

Usage::

    PYTHONPATH=src python benchmarks/bench_backpressure.py           # full
    PYTHONPATH=src python benchmarks/bench_backpressure.py --smoke   # CI

Writes ``BENCH_backpressure.json`` at the repo root.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.lsm.db import DB  # noqa: E402
from repro.lsm.options import DBOptions  # noqa: E402

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_backpressure.json"


def _options(jobs: int) -> DBOptions:
    # Level base and SST size are tight and the per-level window narrow so
    # the store is permanently behind on compaction even at smoke scale.
    return DBOptions(
        key_bits=32,
        memtable_size_bytes=4 << 10,
        sst_size_bytes=8 << 10,
        block_size_bytes=1024,
        block_cache_bytes=0,
        level0_file_num_compaction_trigger=2,
        max_bytes_for_level_base=16 << 10,
        max_background_jobs=jobs,
        max_immutable_memtables=2,
        level0_slowdown_writes_trigger=4,
        level0_stop_writes_trigger=8,
        max_compaction_input_files=2,
    )


def _percentile(sorted_ns: list[int], fraction: float) -> int:
    if not sorted_ns:
        return 0
    index = min(len(sorted_ns) - 1, int(fraction * len(sorted_ns)))
    return sorted_ns[index]


def run_config(label: str, jobs: int, num_ops: int, workdir: str) -> dict:
    db = DB(str(Path(workdir) / label), _options(jobs))
    writer = threading.current_thread()
    worker_flushes = 0
    flush = db._flush_oldest_immutable  # noqa: SLF001

    def counted_flush() -> None:
        nonlocal worker_flushes
        worker_flushes += threading.current_thread() is not writer
        flush()

    db._flush_oldest_immutable = counted_flush  # noqa: SLF001
    value = b"backpressure-payload-" * 8  # ~170 B/put: frequent seals
    latencies: list[int] = []
    started = time.perf_counter_ns()
    for op in range(num_ops):
        before = time.perf_counter_ns()
        db.put(op % (num_ops // 4), value + b"#%d" % op)
        latencies.append(time.perf_counter_ns() - before)
    db.wait_idle()
    elapsed_ns = time.perf_counter_ns() - started
    stats = db.stats
    answers = {key: db.get(key) for key in range(num_ops // 4)}
    health = db.health()
    db.close()
    latencies.sort()
    return {
        "label": label,
        "max_background_jobs": jobs,
        "num_ops": num_ops,
        "elapsed_seconds": round(elapsed_ns / 1e9, 4),
        "puts_per_second": round(num_ops / (elapsed_ns / 1e9), 1),
        "put_latency_ns": {
            "p50": _percentile(latencies, 0.50),
            "p90": _percentile(latencies, 0.90),
            "p99": _percentile(latencies, 0.99),
            "max": latencies[-1] if latencies else 0,
        },
        "memtable_seals": stats.memtable_seals,
        "flushes": stats.flushes,
        "worker_flushes": worker_flushes,
        "compactions": stats.compactions,
        "write_slowdowns": stats.write_slowdowns,
        "write_stops": stats.write_stops,
        "write_stall_time_ns": stats.write_stall_time_ns,
        "write_delay_time_ns": stats.write_delay_time_ns,
        "write_stall_timeouts": stats.write_stall_timeouts,
        "final_stall_state": health.stall_state,
        "_answers": answers,  # stripped before serialization
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--ops", type=int, default=4000,
        help="writes per configuration (default: 4000)",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="CI smoke run: 800 writes"
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail if an idle store reports a write stall, if the "
        "background store did not seal and flush on its worker, or (full "
        "runs only) if background throughput falls below 0.9x inline",
    )
    args = parser.parse_args(argv)
    num_ops = 800 if args.smoke else args.ops
    # Full runs interleave three rounds and keep the per-config median:
    # run-to-run machine noise on this workload (~±10%) would otherwise
    # swamp the inline/background comparison.  Smoke compares no
    # throughput, so one round is enough.
    rounds = 1 if args.smoke else 3

    configs = (("inline", 0), ("background", 1))
    rounds_by_label: dict[str, list[dict]] = {label: [] for label, _ in configs}
    with tempfile.TemporaryDirectory(prefix="backpressure-") as workdir:
        for round_index in range(rounds):
            for label, jobs in configs:
                record = run_config(
                    f"{label}-r{round_index}", jobs, num_ops, workdir
                )
                record["label"] = label
                rounds_by_label[label].append(record)

    records = []
    for label, _ in configs:
        ordered = sorted(
            rounds_by_label[label], key=lambda r: r["puts_per_second"]
        )
        record = ordered[len(ordered) // 2]
        records.append(record)
        print(
            f"{label:12s}: {record['puts_per_second']:10.1f} puts/s, "
            f"p99 {record['put_latency_ns']['p99'] / 1e3:8.1f} us, "
            f"{record['write_slowdowns']} slowdowns, "
            f"{record['write_stops']} stops, "
            f"stall {record['write_stall_time_ns'] / 1e6:.2f} ms, "
            f"{record['compactions']} compactions"
        )

    baseline = records[0].pop("_answers")
    answers_match = all(
        record.pop("_answers") == baseline for record in records[1:]
    )
    result = {
        "bench": "backpressure",
        "num_ops": num_ops,
        "answers_match": answers_match,
        "configs": records,
    }
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    print(f"-> {RESULT_PATH.name} (answers match: {answers_match})")
    if not answers_match:
        return 1
    if args.check:
        inline, background = records
        failures = []
        stalled = {
            label: record["final_stall_state"]
            for label, records in rounds_by_label.items()
            for record in records
            if record["final_stall_state"] != "none"
        }
        if stalled:
            failures.append(
                f"idle stores report a write stall after wait_idle(): "
                f"{stalled}"
            )
        if not (
            background["memtable_seals"]
            and background["flushes"]
            and background["worker_flushes"] == background["flushes"]
        ):
            failures.append(
                f"background store sealed {background['memtable_seals']} "
                f"memtables and ran {background['worker_flushes']} of "
                f"{background['flushes']} flushes on its worker"
            )
        # Full runs only: a smoke round is ~0.1 s, and in a fresh process
        # inline wins it on warm-up alone — that measures noise, not
        # serialization.
        floor = 0.9 * inline["puts_per_second"]
        if not args.smoke and background["puts_per_second"] < floor:
            failures.append(
                f"background {background['puts_per_second']} puts/s below "
                f"0.9x inline ({inline['puts_per_second']})"
            )
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print(
            "check passed: idle stores report no stall, the background "
            "store flushed on its worker"
            + ("" if args.smoke else ", background >= 0.9x inline")
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
