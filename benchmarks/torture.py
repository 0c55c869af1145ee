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

Exits non-zero on any violation, and under ``--smoke`` also when the total
crash-point count differs from the one pinned in ``tests/golden/counts.json``
(the schedules or the durable-op numbering moved; a change that moves it on
purpose regenerates the golden, see ``tests/golden/test_ledger_counts.py``).
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

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden" / "counts.json"
SMOKE_SEEDS = 5


def run_matrix(seeds: int) -> tuple[int, list[str]]:
    """Sweep ``seeds`` seeds (and the first three again with salted
    filters); returns the total crash-point count and every violation."""
    config = TortureConfig()
    # Salted filters ride inside the SST envelope, so a power cut at any
    # durable write must recover a store whose surviving runs still probe
    # with the exact per-file hash family they were built with.
    salted_config = TortureConfig(filter_salt_seed=0x5EED_CAFE)
    violations: list[str] = []
    total_crash_points = 0
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
            print(
                f"seed {seed:3d}: {report.crash_points:4d} inline crash "
                f"points, {len(report.violations)} violations; "
                f"transient-equivalence "
                f"{'ok' if equivalence['answers_match'] else 'FAILED'}"
            )
        for seed in range(min(3, seeds)):
            report = torture_seed(workdir, seed, salted_config)
            total_crash_points += report.crash_points
            violations.extend(
                f"salted {violation}" for violation in report.violations
            )
            print(
                f"salted seed {seed:3d}: {report.crash_points:4d} inline "
                f"crash points, {len(report.violations)} violations"
            )
    return total_crash_points, violations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seeds", type=int, default=20,
        help="number of seeds to sweep (default: 20)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"CI smoke matrix: {SMOKE_SEEDS} seeds, crash-point total pinned",
    )
    args = parser.parse_args(argv)
    seeds = SMOKE_SEEDS if args.smoke else args.seeds

    started = time.time()
    total, violations = run_matrix(seeds)
    print(
        f"\n{total} inline crash points across {seeds} seeds in "
        f"{time.time() - started:.2f}s"
    )
    if violations:
        print(f"{len(violations)} VIOLATIONS:", file=sys.stderr)
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    print("durability contract held at every crash point")
    if args.smoke:
        pinned = json.loads(GOLDEN.read_text())["torture"]["smoke_crash_points"]
        if total != pinned:
            print(
                f"{total} crash points, but {GOLDEN.name} pins {pinned}: the "
                "schedules or the durable-op numbering moved",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
