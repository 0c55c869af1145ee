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
    torture_seed,
    transient_fault_equivalence,
)

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_torture.json"


def run_matrix(seeds: int) -> dict:
    config = TortureConfig()
    # Salted filters ride inside the SST envelope, so a power cut at any
    # durable write must recover a store whose surviving runs still probe
    # with the exact per-file hash family they were built with.
    salted_config = TortureConfig(filter_salt_seed=0x5EED_CAFE)
    records = []
    violations: list[str] = []
    total_crash_points = 0
    started = time.time()
    with tempfile.TemporaryDirectory(prefix="torture-") as workdir:
        for seed in range(seeds):
            report = torture_seed(workdir, seed, config)
            equivalence = transient_fault_equivalence(workdir, seed, config)
            total_crash_points += report.crash_points
            violations.extend(report.violations)
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
                    "crash_points": report.crash_points,
                    "violations": report.violations,
                    "transient_answers_match": equivalence["answers_match"],
                    "injected_transient_errors": equivalence[
                        "injected_transient_errors"
                    ],
                    "io_retries": equivalence["io_retries"],
                }
            )
            print(
                f"seed {seed:3d}: {report.crash_points:4d} inline crash "
                f"points, {len(report.violations)} violations; "
                f"transient-equivalence "
                f"{'ok' if equivalence['answers_match'] else 'FAILED'}"
            )
        salted_records = []
        for seed in range(min(3, seeds)):
            report = torture_seed(workdir, seed, salted_config)
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
        "total_crash_points": total_crash_points,
        "elapsed_seconds": round(time.time() - started, 2),
        "violations": violations,
        "per_seed": records,
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
    args = parser.parse_args(argv)
    seeds = 5 if args.smoke else args.seeds

    result = run_matrix(seeds)
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    print(
        f"\n{result['total_crash_points']} inline crash points "
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
