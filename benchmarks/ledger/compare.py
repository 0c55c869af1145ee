"""Compare two sets of ledger results: ``compare.py A B``.

``A`` (the base) and ``B`` are directories holding result envelopes written
by ``run.py --out`` - any number of runs each, searched recursively (``raw/``
is skipped).  One row per (end-to-end metric, workload): both medians, the
ratio B/A, and a verdict from the bounds in ``BENCHMARK.json``:

* ``within-bound``  B is not worse than A by more than the metric's bound;
* ``worse``         it is (the command then exits non-zero);
* ``unresolved``    the run-to-run spread of either side (quartile distance
                    over median) is wider than the bound, so the runs cannot
                    tell - never reported as "unchanged".

``failed_share`` has no tolerance: any increase is ``worse``.  Per-layer
metrics from ``--trace`` envelopes are listed without a verdict; they have no
bound, they say where a difference sits.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(directory: Path) -> dict:
    """``{(workload, traced): [envelope, ...]}`` for one side."""
    found = defaultdict(list)
    for path in sorted(directory.rglob("*.json")):
        if "raw" in path.relative_to(directory).parts:
            continue
        envelope = json.loads(path.read_text())
        if "schema_version" in envelope:
            found[envelope["workload"], envelope["trace"]].append(envelope)
    return found


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (third - first) / abs(median) if median else float("inf")


def verdict(base: list[float], other: list[float], better: str, bound: float) -> str:
    if base == other and len(set(base)) == 1:
        return "within-bound (identical)"
    if max(spread(base), spread(other)) > bound:
        return "unresolved"
    a, b = statistics.median(base), statistics.median(other)
    worsening = (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)
    return "worse" if worsening > bound else "within-bound"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, other = load(Path(argv[0])), load(Path(argv[1]))
    worse = 0
    row = "{:<13}{:<28}{:>14}{:>14}{:>9}  {}"
    print(row.format("workload", "metric", "A (base)", "B", "B/A", "verdict"))
    for workload in (w["name"] for w in spec["workloads"]):
        for traced, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            runs_a, runs_b = base.get((workload, traced)), other.get((workload, traced))
            if not runs_a or not runs_b:
                continue
            for metric in declared:
                name = metric["name"]
                a = [e["metrics"][name]["value"] for e in runs_a]
                b = [e["metrics"][name]["value"] for e in runs_b]
                med_a, med_b = statistics.median(a), statistics.median(b)
                said = (
                    verdict(a, b, metric["better"], metric["bound"])
                    if "bound" in metric else ""
                )
                worse += said == "worse"
                ratio = f"{med_b / med_a:.3f}" if med_a else "-"
                print(row.format(workload, name, f"{med_a:.6g}", f"{med_b:.6g}", ratio, said))
            if not traced:
                fail_a = max(e["failed_share"] for e in runs_a)
                fail_b = max(e["failed_share"] for e in runs_b)
                said = "worse" if fail_b > fail_a else "within-bound"
                worse += said == "worse"
                print(row.format(workload, "failed_share", f"{fail_a:.6g}", f"{fail_b:.6g}", "-", said))
                print(f"{'':13}({len(runs_a)} run(s) in A, {len(runs_b)} in B)")
    if worse:
        print(f"{worse} row(s) worse than the bound")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
