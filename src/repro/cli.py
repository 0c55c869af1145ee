"""Command-line entry point: regenerate any paper figure's data.

Usage::

    repro-bench list                 # show available experiments
    repro-bench fig4                 # Fig. 4 allocation mechanisms
    repro-bench fig5 --workload correlated
    repro-bench fig8 --range-size 16 --csv results/fig11.csv
    REPRO_SCALE=5 repro-bench fig7   # 5x keys and queries
"""

from __future__ import annotations

import argparse
import sys

from repro.bench import experiments
from repro.bench.report import banner, format_table, write_csv

_EXPERIMENTS = {
    "fig4": lambda args: experiments.fig4_allocation(),
    "fig5": lambda args: experiments.fig5_endtoend(
        workload=args.workload,
        filters=tuple(args.filters.split(",")) if args.filters else ("rosetta", "surf"),
    ),
    "fig5d": lambda args: experiments.fig5_endtoend(
        filters=("rosetta", "surf", "prefix-bloom", "fence"),
        range_sizes=(2, 8, 32),
    ),
    "fig6a": lambda args: experiments.fig6_construction(),
    "fig6b": lambda args: experiments.fig6_write_cost(),
    "fig7": lambda args: experiments.fig7_point_queries(),
    "fig8": lambda args: experiments.fig8_tradeoff(
        workload=args.workload, range_size=args.range_size
    ),
    "fig9": lambda args: experiments.fig9_memory_hierarchy(),
    "fig10": lambda args: experiments.fig10_strings(),
    "fig11": lambda args: experiments.fig8_tradeoff(
        workload=args.workload, range_size=min(args.range_size, 16)
    ),
    "theory": lambda args: experiments.theory_validation(),
    "ext-correlation": lambda args: experiments.extension_correlation_offsets(),
    "ext-tiered": lambda args: experiments.extension_tiered_vs_leveled(),
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate figures from the Rosetta paper (SIGMOD 2020).",
    )
    parser.add_argument(
        "experiment",
        help=f"experiment id or 'list'; one of: {', '.join(sorted(_EXPERIMENTS))}",
    )
    parser.add_argument(
        "--workload",
        default="uniform",
        choices=("uniform", "correlated", "skewed"),
        help="workload family for fig5/fig8/fig11",
    )
    parser.add_argument(
        "--range-size", type=int, default=64, help="range size for fig8/fig11"
    )
    parser.add_argument(
        "--filters", default="", help="comma-separated filter recipes for fig5"
    )
    parser.add_argument("--csv", default="", help="also write the table as CSV")
    parser.add_argument(
        "--chart", action="store_true",
        help="also render numeric columns named *fpr* as an ASCII bar chart",
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name in sorted(_EXPERIMENTS):
            print(name)
        return 0
    runner = _EXPERIMENTS.get(args.experiment)
    if runner is None:
        print(
            f"unknown experiment {args.experiment!r}; "
            f"try one of: {', '.join(sorted(_EXPERIMENTS))}",
            file=sys.stderr,
        )
        return 2

    headers, rows = runner(args)
    print(banner(f"Experiment: {args.experiment}"))
    print(format_table(headers, rows))
    if args.chart:
        _render_charts(headers, rows)
    if args.csv:
        write_csv(args.csv, headers, rows)
        print(f"\nwrote {args.csv}")
    return 0


def _render_charts(headers, rows) -> None:
    """Bar-chart every *fpr* column against the row labels."""
    from repro.bench.report import ascii_bar_chart

    fpr_columns = [
        index for index, header in enumerate(headers)
        if "fpr" in str(header).lower()
    ]
    if not fpr_columns or not rows:
        return
    labels = [
        " ".join(str(v) for v in row[: fpr_columns[0]]) or str(row[0])
        for row in rows
    ]
    for index in fpr_columns:
        values = [float(row[index]) for row in rows]
        print()
        print(ascii_bar_chart(labels, values, title=str(headers[index]),
                              log_scale=True))


if __name__ == "__main__":
    raise SystemExit(main())
