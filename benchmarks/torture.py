"""Crash-recovery torture driver — the full acceptance matrix.

Runs the harness in :mod:`repro.lsm.torture` over a seed matrix: for each
seed, a randomized put/delete/batch/flush/compact schedule is replayed
once per crash point (power cut at every durable I/O operation), the store
is recovered cold, and the result is checked against an in-memory model —
zero acknowledged-write loss, zero wrong reads, recovery never raises.
Each seed also runs the transient-fault equivalence check: the same
workload under injected transient read errors (with retries) must produce
exactly the fault-free answers, with every injected fault visible in the
health report.

One ``torture_seed`` call per seed sweeps every crash point inline and
again with background maintenance workers on a seeded deterministic
scheduler (``--sched-seeds`` interleavings per seed — power cuts land
mid-flush, mid-compaction, and mid-superversion-install on a worker).
Each seed also checks interleaving equivalence: inline and every
scheduler seed must answer identically on a crash-free run.

Usage::

    PYTHONPATH=src python benchmarks/torture.py           # 20 seeds (full)
    PYTHONPATH=src python benchmarks/torture.py --smoke   # 5 seeds (CI)

Exits non-zero on any violation; writes ``BENCH_torture.json`` at the repo
root with the per-seed matrix.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.lsm.torture import (  # noqa: E402
    TortureConfig,
    schedule_equivalence,
    torture_seed,
    transient_fault_equivalence,
)

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_torture.json"


def run_matrix(seeds: int, sched_seeds: int) -> dict:
    config = TortureConfig()
    # The default workload's narrow key space never splinters a level, so
    # same-level-pair leveled parallelism gets a dedicated short sweep: a
    # wide-key, single-run-window config where an oversize level yields
    # several disjoint-footprint jobs per pass and the conflict table
    # admits two leveled compactions into one level pair concurrently.
    range_config = TortureConfig(
        num_ops=32,
        key_space=512,
        value_repeat=96,
        put_bias=0.95,
        max_compaction_input_files=1,
    )
    # Salted filters ride inside the SST envelope, so a power cut at any
    # durable write must recover a store whose surviving runs still probe
    # with the exact per-file hash family they were built with.
    salted_config = TortureConfig(filter_salt_seed=0x5EED_CAFE)
    interleavings = tuple(range(sched_seeds))
    records = []
    violations: list[str] = []
    total_crash_points = 0
    total_concurrent_crash_points = 0
    total_range_admissions = 0
    started = time.time()
    with tempfile.TemporaryDirectory(prefix="torture-") as workdir:
        for seed in range(seeds):
            report = torture_seed(
                workdir, seed, config, sched_seeds=(None, *interleavings)
            )
            equivalence = transient_fault_equivalence(workdir, seed, config)
            interleaving_eq = schedule_equivalence(
                workdir, seed, config, sched_seeds=interleavings
            )
            inline = report.crash_points_by_schedule[None]
            concurrent = report.crash_points - inline
            total_crash_points += inline
            total_concurrent_crash_points += concurrent
            total_range_admissions += report.leveled_range_admissions
            violations.extend(report.violations)
            if not interleaving_eq["equivalent"]:
                violations.append(
                    f"seed={seed}: interleavings diverged: "
                    f"{interleaving_eq['mismatches']}"
                )
            if not equivalence["answers_match"]:
                violations.append(
                    f"seed={seed}: answers diverged under transient faults"
                )
            if (
                equivalence["observed_transient_errors"]
                != equivalence["injected_transient_errors"]
            ):
                violations.append(
                    f"seed={seed}: counter parity broken — injected "
                    f"{equivalence['injected_transient_errors']} transient "
                    f"errors, observed "
                    f"{equivalence['observed_transient_errors']}"
                )
            records.append(
                {
                    "seed": seed,
                    "crash_points": inline,
                    "violations": [
                        v for v in report.violations if "sched_seed=" not in v
                    ],
                    "transient_answers_match": equivalence["answers_match"],
                    "injected_transient_errors": equivalence[
                        "injected_transient_errors"
                    ],
                    "io_retries": equivalence["io_retries"],
                    "concurrent_crash_points": concurrent,
                    "concurrent_violations": [
                        v for v in report.violations if "sched_seed=" in v
                    ],
                    "leveled_range_admissions": (
                        report.leveled_range_admissions
                    ),
                    "interleavings_equivalent": interleaving_eq["equivalent"],
                }
            )
            print(
                f"seed {seed:3d}: {inline:4d} inline + "
                f"{concurrent:4d} concurrent crash points, "
                f"{len(report.violations)} "
                f"violations; transient-equivalence "
                f"{'ok' if equivalence['answers_match'] else 'FAILED'}, "
                f"interleaving-equivalence "
                f"{'ok' if interleaving_eq['equivalent'] else 'FAILED'}"
            )
        range_records = []
        for seed in range(min(3, seeds)):
            report = torture_seed(
                workdir, seed, range_config, sched_seeds=interleavings
            )
            total_concurrent_crash_points += report.crash_points
            total_range_admissions += report.leveled_range_admissions
            violations.extend(report.violations)
            range_records.append(
                {
                    "seed": seed,
                    "crash_points": report.crash_points,
                    "leveled_range_admissions": (
                        report.leveled_range_admissions
                    ),
                    "violations": report.violations,
                }
            )
            print(
                f"range seed {seed:3d}: {report.crash_points:4d} "
                f"concurrent crash points, "
                f"{report.leveled_range_admissions} range admissions, "
                f"{len(report.violations)} violations"
            )
        salted_records = []
        for seed in range(min(3, seeds)):
            report = torture_seed(
                workdir, seed, salted_config, sched_seeds=(None,)
            )
            total_crash_points += report.crash_points
            violations.extend(
                f"salted {violation}" for violation in report.violations
            )
            salted_records.append(
                {
                    "seed": seed,
                    "crash_points": report.crash_points,
                    "violations": report.violations,
                }
            )
            print(
                f"salted seed {seed:3d}: {report.crash_points:4d} inline "
                f"crash points, {len(report.violations)} violations"
            )
    return {
        "bench": "torture",
        "seeds": seeds,
        "scheduler_seeds": sched_seeds,
        "total_crash_points": total_crash_points,
        "total_concurrent_crash_points": total_concurrent_crash_points,
        "total_leveled_range_admissions": total_range_admissions,
        "elapsed_seconds": round(time.time() - started, 2),
        "violations": violations,
        "per_seed": records,
        "range_sweep": range_records,
        "salted_sweep": salted_records,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seeds", type=int, default=20,
        help="number of seeds to sweep (default: 20)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI smoke matrix: 5 seeds",
    )
    parser.add_argument(
        "--sched-seeds", type=int, default=2,
        help="deterministic scheduler seeds per workload seed (default: 2)",
    )
    args = parser.parse_args(argv)
    seeds = 5 if args.smoke else args.seeds

    result = run_matrix(seeds, args.sched_seeds)
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    print(
        f"\n{result['total_crash_points']} inline + "
        f"{result['total_concurrent_crash_points']} concurrent crash points "
        f"across {seeds} seeds in {result['elapsed_seconds']}s "
        f"-> {RESULT_PATH.name}"
    )
    if result["violations"]:
        print(f"{len(result['violations'])} VIOLATIONS:", file=sys.stderr)
        for violation in result["violations"]:
            print(f"  {violation}", file=sys.stderr)
        return 1
    print("durability contract held at every crash point")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
