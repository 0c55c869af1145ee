"""One-command figure-document generation.

``python -m repro.bench.figures [output.md]`` runs every registered
experiment at the current ``REPRO_SCALE`` and writes a single markdown
document with all regenerated tables — the reproducible artifact that
accompanies EXPERIMENTS.md.  Individual experiments are isolated: one
failure is recorded in the document rather than aborting the run.
"""

from __future__ import annotations

import os
import sys
import time
import traceback
from typing import Callable

from repro.bench import experiments

__all__ = ["FIGURES", "generate_figures_document", "main"]

#: Ordered registry: document section -> experiment thunk.
FIGURES: dict[str, Callable[[], tuple]] = {
    "Fig. 4 — bits-allocation mechanisms": experiments.fig4_allocation,
    "Fig. 5(A) — uniform end-to-end": (
        lambda: experiments.fig5_endtoend(range_sizes=(2, 8, 16, 32, 64))
    ),
    "Fig. 5(B) — correlated workload": (
        lambda: experiments.fig5_endtoend(workload="correlated",
                                          range_sizes=(8, 32))
    ),
    "Fig. 5(C) — skewed keys": (
        lambda: experiments.fig5_endtoend(workload="skewed",
                                          range_sizes=(8, 32))
    ),
    "Fig. 5(D) — default-RocksDB baselines": (
        lambda: experiments.fig5_endtoend(
            filters=("rosetta", "surf", "prefix-bloom", "fence"),
            range_sizes=(8, 32),
        )
    ),
    "Fig. 6(A) — filter construction": experiments.fig6_construction,
    "Fig. 6(B) — write-path overhead": experiments.fig6_write_cost,
    "Fig. 7 — point-query FPR": experiments.fig7_point_queries,
    "Fig. 8 — FPR/memory tradeoff (uniform, range 64)": (
        lambda: experiments.fig8_tradeoff()
    ),
    "Fig. 9 — memory hierarchy": experiments.fig9_memory_hierarchy,
    "Fig. 10 — string keys": experiments.fig10_strings,
    "Fig. 11 — small ranges": (
        lambda: experiments.fig8_tradeoff(range_size=16)
    ),
    "§3 — theory validation": experiments.theory_validation,
    "Extension — correlation offsets": (
        experiments.extension_correlation_offsets
    ),
    "Extension — tiered vs leveled": experiments.extension_tiered_vs_leveled,
}


def _markdown_table(headers, rows) -> str:
    def cell(value) -> str:
        if isinstance(value, float):
            return f"{value:.5g}"
        return str(value)

    lines = [
        "| " + " | ".join(str(h) for h in headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    lines.extend(
        "| " + " | ".join(cell(v) for v in row) + " |" for row in rows
    )
    return "\n".join(lines)


def generate_figures_document(sections: dict | None = None) -> str:
    """Run every experiment and return the combined markdown document."""
    sections = sections if sections is not None else FIGURES
    scale = os.environ.get("REPRO_SCALE", "1")
    parts = [
        "# Regenerated figures",
        "",
        f"Generated by `python -m repro.bench.figures` at REPRO_SCALE={scale}.",
        "",
    ]
    for title, thunk in sections.items():
        parts.append(f"## {title}")
        parts.append("")
        start = time.perf_counter()
        try:
            headers, rows = thunk()
        except Exception:  # noqa: BLE001 - isolate per-figure failures
            parts.append("```")
            parts.append(traceback.format_exc().strip())
            parts.append("```")
            parts.append("")
            continue
        elapsed = time.perf_counter() - start
        parts.append(_markdown_table(headers, rows))
        parts.append("")
        parts.append(f"*({len(rows)} rows, {elapsed:.1f}s)*")
        parts.append("")
    return "\n".join(parts)


def main(argv: list[str] | None = None) -> int:
    """CLI entry: write the document to the given path (default stdout)."""
    argv = argv if argv is not None else sys.argv[1:]
    document = generate_figures_document()
    if argv:
        with open(argv[0], "w") as handle:
            handle.write(document)
        print(f"wrote {argv[0]} ({len(document.splitlines())} lines)")
    else:
        print(document)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
