"""Chaos benchmark: availability + tail latency across defense configs.

Runs the chaos harness (:mod:`repro.lsm.chaos`) — concurrent mixed
traffic against :class:`~repro.lsm.serving.ShardedServer` shards whose
storage is a seeded :class:`~repro.lsm.faults.FaultInjectionEnv`, while
an injector thread arms transient read faults and background write
faults (degraded-mode flips) — across four configurations:

* ``no-defense``    — blocking queue, no deadlines, breaker off: a
  degraded shard leaks ``ReadOnlyStoreError`` forever.
* ``shedding``      — bounded queue with immediate shed + per-request
  deadlines, breaker still off.
* ``shedding-breaker`` — sheds + deadlines + the per-shard circuit
  breaker (writes fail fast while a shard is degraded; the first write
  after a capped exponential back-off probes ``DB.resume()``).
* ``benign``        — shedding-breaker config with fault injection off:
  proves the defenses cost ~nothing on the happy path.  Compared
  against an in-run ``benign-baseline`` (defenses off, no faults).

Every configuration must finish with **zero violations** — no hangs, no
wrong answers, no untyped errors, no stranded futures (typed fast
failures are expected and counted separately).  ``--check`` additionally
gates: shedding-breaker availability >= no-defense availability, benign
availability == 1.0, and (full runs) benign throughput within 5% of the
undefended baseline.

Usage::

    PYTHONPATH=src python benchmarks/bench_chaos.py            # full
    PYTHONPATH=src python benchmarks/bench_chaos.py --smoke --check

A full run writes ``BENCH_chaos.json`` at the repo root; a smoke run
writes nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.lsm.chaos import ChaosOptions, run_chaos  # noqa: E402

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_chaos.json"


def _configs(base: ChaosOptions) -> list[tuple[str, ChaosOptions]]:
    return [
        (
            "no-defense",
            replace(
                base,
                queue_policy="block",
                default_deadline_s=None,
                breaker_enabled=False,
            ),
        ),
        ("shedding", replace(base, breaker_enabled=False)),
        ("shedding-breaker", base),
        ("benign", replace(base, inject_faults=False)),
        (
            "benign-baseline",
            replace(
                base,
                inject_faults=False,
                queue_policy="block",
                default_deadline_s=None,
                breaker_enabled=False,
            ),
        ),
    ]


def _record(name: str, report) -> dict:
    return {
        "label": name,
        "ops": report.ops,
        "ok_ops": report.ok_ops,
        "availability": round(report.availability, 4),
        "requests_per_second": round(
            report.ops / report.duration_s, 1
        ) if report.duration_s else 0.0,
        "elapsed_seconds": round(report.duration_s, 4),
        "op_latency_ms": {
            "p50": round(report.latency_percentile(0.50) * 1e3, 3),
            "p99": round(report.latency_percentile(0.99) * 1e3, 3),
        },
        "typed_failures": dict(report.typed_failures),
        "violations": report.violations,
        "faults_injected": dict(report.injected),
        "serving_counters": report.counters,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--clients", type=int, default=8,
        help="client threads per configuration (default: 8)",
    )
    parser.add_argument(
        "--ops", type=int, default=600,
        help="ops per client (default: 600)",
    )
    parser.add_argument(
        "--preload", type=int, default=2000,
        help="stable-region keys preloaded per configuration",
    )
    parser.add_argument(
        "--shards", type=int, default=4,
        help="serving shards (default: 4)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI smoke run: 4 clients x 120 ops over 400 keys",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail on any violation or on benign availability < 1.0; "
        "full runs additionally gate shedding-breaker availability >= "
        "no-defense and benign throughput within 5%% of the undefended "
        "baseline",
    )
    parser.add_argument("--seed", type=int, default=0xC4405)
    args = parser.parse_args(argv)

    base = ChaosOptions(
        seed=args.seed,
        clients=4 if args.smoke else args.clients,
        ops_per_client=120 if args.smoke else args.ops,
        preload=400 if args.smoke else args.preload,
        num_shards=args.shards,
    )

    def _run_once(name: str, options: ChaosOptions) -> dict:
        with tempfile.TemporaryDirectory(
            prefix=f"chaos-{name}-"
        ) as workdir:
            report = run_chaos(workdir, options)
        return _record(name, report)

    def _print_record(rec: dict) -> None:
        print(
            f"{rec['label']:18s}: availability {rec['availability']:6.4f}, "
            f"{rec['requests_per_second']:8.1f} req/s, "
            f"p99 {rec['op_latency_ms']['p99']:8.2f} ms, "
            f"violations {len(rec['violations'])}, "
            f"typed failures {sum(rec['typed_failures'].values())}"
        )
        for violation in rec["violations"][:10]:
            print(f"  ! {violation}", file=sys.stderr)

    configs = dict(_configs(base))
    records: dict[str, dict] = {}
    for name, options in configs.items():
        if name.startswith("benign") and not args.smoke:
            continue  # measured as interleaved pairs below
        records[name] = _run_once(name, options)
        _print_record(records[name])

    # The benign pair exists to measure the *cost* of the defenses, and
    # a single ~1.5s run carries ±10% scheduler noise — well above the
    # 5% acceptance threshold — and the noise *drifts* (a busy minute
    # slows whichever config happens to run then).  Sequential
    # best-of-N can't cancel drift; interleaved pairs can: each trial
    # runs defended and baseline back-to-back (order alternating), the
    # ratio is taken within the pair, and the gate uses the median pair
    # ratio.  Fault runs stay single (availability is their signal).
    pair_ratios: list[float] = []
    if not args.smoke:
        for i in range(3):
            order = ("benign", "benign-baseline")
            if i % 2:
                order = order[::-1]
            pair: dict[str, dict] = {}
            for name in order:
                record = _run_once(name, configs[name])
                pair[name] = record
                prev = records.get(name)
                if (
                    prev is None
                    or record["violations"]
                    or record["requests_per_second"]
                    > prev["requests_per_second"]
                ):
                    records[name] = record
            pair_ratios.append(
                pair["benign"]["requests_per_second"]
                / max(1e-9, pair["benign-baseline"]["requests_per_second"])
            )
        for name in ("benign", "benign-baseline"):
            _print_record(records[name])
        benign_ratio = round(sorted(pair_ratios)[1], 4)
    else:
        benign_ratio = round(
            records["benign"]["requests_per_second"]
            / max(
                1e-9, records["benign-baseline"]["requests_per_second"]
            ),
            4,
        )
    print(f"benign throughput ratio vs undefended baseline: {benign_ratio}")

    result = {
        "bench": "chaos",
        "clients": base.clients,
        "ops_per_client": base.ops_per_client,
        "preload": base.preload,
        "num_shards": base.num_shards,
        "benign_throughput_ratio": benign_ratio,
        "benign_pair_ratios": [round(r, 4) for r in pair_ratios],
        "configs": list(records.values()),
    }
    if not args.smoke:
        RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")
        print(f"-> {RESULT_PATH.name}")

    if args.check:
        failed = False
        for name, rec in records.items():
            if rec["violations"]:
                print(
                    f"CHECK FAILED: {name} had "
                    f"{len(rec['violations'])} violation(s)",
                    file=sys.stderr,
                )
                failed = True
        defended = records["shedding-breaker"]["availability"]
        undefended = records["no-defense"]["availability"]
        # Smoke runs last ~0.15s: where a fault lands relative to the end
        # of the run dominates the ratio, so the ordering gate applies to
        # full runs only.
        if not args.smoke and defended < undefended:
            print(
                f"CHECK FAILED: shedding-breaker availability {defended} "
                f"below no-defense {undefended}",
                file=sys.stderr,
            )
            failed = True
        if records["benign"]["availability"] < 1.0:
            print(
                "CHECK FAILED: benign run not fully available "
                f"({records['benign']['availability']})",
                file=sys.stderr,
            )
            failed = True
        if not args.smoke and benign_ratio < 0.95:
            print(
                f"CHECK FAILED: benign throughput ratio {benign_ratio} "
                f"below the 0.95 acceptance floor",
                file=sys.stderr,
            )
            failed = True
        if failed:
            return 1
        print(
            "check passed: zero violations; defenses no worse than "
            "no-defense; benign path fully available"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
