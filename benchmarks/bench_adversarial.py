"""Adversarial FP-attack benchmark — filter hardening under replay pressure.

A deterministic filter leaks its false positives: once an attacker finds a
query the filter fails to reject, that query costs a device read on every
replay, forever.  This benchmark drives the learning attacker from
:mod:`repro.workloads.adversarial` against three configurations of the
same store:

* ``undefended`` — the pre-hardening store (``filter_salt_seed=0``):
  learned FPs survive even a full rebuild, because the rebuilt filter
  hashes identically over the identical key set;
* ``salted`` — per-SST filter salting: a rebuild allocates a fresh file
  number, hence a fresh salt, hence a hash family the attacker has never
  probed — the learned FP set goes stale instantly;
* ``salted+quarantine`` — salting plus the FP-feedback detector: the
  store *notices* the replay (a run's false positives are too many to be
  chance under its filter's design FPR), flags the run in ``health()``,
  and at its next maintenance point rebuilds that run's filter in place
  with the next salt generation and bonus bits — no operator in the loop,
  no SST rewritten; ``db.compact()`` is that maintenance point here.

Reported per config: benign FPR and throughput, FPR under attack, the
attacker's replay hit rate before and after the rebuild, and the
detector's flag/heal cycle.  Benign throughput is timed on all three
stores at once, chunk by chunk in a rotating order, so a noisy moment on
the machine lands on every config instead of on one.  A black-box section
cross-validates the timing-only classifier against the stats oracle.

Usage::

    PYTHONPATH=src python benchmarks/bench_adversarial.py            # full
    PYTHONPATH=src python benchmarks/bench_adversarial.py --smoke    # CI
    PYTHONPATH=src python benchmarks/bench_adversarial.py --smoke --check

``--check`` exits non-zero unless (a) the attack inflates observed FPR at
least 5x over benign traffic on the undefended config while learned FPs
survive its rebuild, and (b) the defended configs return to within 2x of
the design FPR after rebuild at benign throughput within tolerance of
the undefended baseline.  A full run writes ``BENCH_adversarial.json``;
a smoke run writes nothing.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.factories import make_factory  # noqa: E402
from repro.filters.bloom_point import BloomPointFilter  # noqa: E402
from repro.lsm import DB, DBOptions  # noqa: E402
from repro.workloads import AdversarialAttacker  # noqa: E402

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_adversarial.json"

KEY_BITS = 24
BITS_PER_KEY = 10.0
SALT_SEED = 0x5EED_F17E
#: Benign timing: passes over the query list, and queries per timed chunk.
BENIGN_PASSES = 3
BENIGN_CHUNK = 100

#: ``(label, filter_salt_seed, quarantine)`` per configuration.
CONFIGS = (
    ("undefended", 0, False),
    ("salted", SALT_SEED, False),
    ("salted+quarantine", SALT_SEED, True),
)


def make_options(salt_seed: int, quarantine: bool) -> DBOptions:
    return DBOptions(
        key_bits=KEY_BITS,
        memtable_size_bytes=1 << 16,
        sst_size_bytes=1 << 22,  # one run holds the whole key set
        block_cache_bytes=0,  # every false positive costs a device read
        filter_factory=make_factory(
            "bloom", key_bits=KEY_BITS, bits_per_key=BITS_PER_KEY
        ),
        filter_salt_seed=salt_seed,
        quarantine_filters=quarantine,
    )


def build_store(path: str, options: DBOptions, stored: list[int]) -> DB:
    db = DB(path, options)
    for key in stored:
        db.put(key, b"v")
    db.flush()
    db.force_full_compaction()  # exactly one run, one filter
    return db


def design_fpr(stored: list[int]) -> float:
    """The point-query FPR the benchmark's filter recipe is designed to
    deliver."""
    reference = BloomPointFilter(key_bits=KEY_BITS, bits_per_key=BITS_PER_KEY)
    reference.populate(stored)
    return reference.design_fpr(1)


def benign_queries(stored: list[int], probes: int, seed: int) -> list[int]:
    """Mixed benign traffic: ``probes`` absent keys and a quarter as many
    stored ones, shuffled."""
    rng = random.Random(seed)
    avoid = set(stored)
    absent = []
    while len(absent) < probes:
        key = rng.randrange(1 << KEY_BITS)
        if key not in avoid:
            absent.append(key)
    present = [stored[rng.randrange(len(stored))] for _ in range(probes // 4)]
    queries = absent + present
    rng.shuffle(queries)
    return queries


def measure_fpr(db: DB, queries: list[int]) -> float:
    """Observed FPR of ``queries`` on ``db``."""
    before = db.stats.snapshot()
    for key in queries:
        db.get(key)
    return db.stats.diff(before).observed_fpr


def benign_rates(
    stores: dict[str, DB], queries: list[int]
) -> dict[str, tuple[float, float]]:
    """Per store: (observed FPR, ops/s) of ``queries`` run
    ``BENIGN_PASSES`` times, timed one ``BENIGN_CHUNK`` at a time with the
    stores taking turns in an order that rotates every chunk."""
    labels = list(stores)
    before = {label: stores[label].stats.snapshot() for label in labels}
    spent = dict.fromkeys(labels, 0.0)
    chunks = [
        queries[at:at + BENIGN_CHUNK]
        for at in range(0, len(queries), BENIGN_CHUNK)
    ] * BENIGN_PASSES
    for index, chunk in enumerate(chunks):
        shift = index % len(labels)
        for label in labels[shift:] + labels[:shift]:
            get = stores[label].get
            started = time.perf_counter()
            for key in chunk:
                get(key)
            spent[label] += time.perf_counter() - started
    timed = len(queries) * BENIGN_PASSES
    return {
        label: (
            stores[label].stats.diff(before[label]).observed_fpr,
            timed / max(spent[label], 1e-9),
        )
        for label in labels
    }


def run_config(
    db: DB,
    label: str,
    salt_seed: int,
    quarantine: bool,
    stored: list[int],
    sizes: dict,
    benign: tuple[float, float],
) -> dict:
    benign_fpr, benign_ops = benign
    attacker = AdversarialAttacker(db, mode="oracle", seed=7, avoid=stored)
    before = db.stats.snapshot()
    report = attacker.run(
        point_probes=sizes["learn_probes"],
        range_probes=0,
        replay_rounds=sizes["replay_rounds"],
        replay_pressure=3,
        max_replay_probes=sizes["max_replay_probes"],
    )
    attack_fpr = db.stats.diff(before).observed_fpr
    flagged_during_attack = db.health().filters_under_attack

    # Rebuild: the quarantine config heals itself (compact() is a
    # maintenance point, where the flagged run's filter is rebuilt in
    # place); the others need the operator to force a rewrite — which,
    # undefended, changes nothing the attacker cares about.
    if quarantine:
        db.compact()
    else:
        db.force_full_compaction()
    flagged_after_rebuild = db.health().filters_under_attack

    # Post-rebuild: the attacker replays its learned set amid fresh
    # benign traffic.  Undefended, the learned set still hits 100%;
    # salted, it reverted to the design FPR.
    before = db.stats.snapshot()
    replayed, replay_hits = attacker.replay(rounds=2, pressure=2)
    post_benign_fpr = measure_fpr(
        db, benign_queries(stored, sizes["post_probes"], seed=13)
    )
    post_fpr = db.stats.diff(before).observed_fpr
    return {
        "config": label,
        "filter_salt_seed": salt_seed,
        "quarantine": quarantine,
        "benign_fpr": benign_fpr,
        "benign_ops_per_s": round(benign_ops, 1),
        "learned_fp_queries": report.learned,
        "attack_fpr": attack_fpr,
        "attack_replay_fpr": report.replay_fpr,
        "filters_under_attack_during_attack": flagged_during_attack,
        "filters_under_attack_after_rebuild": flagged_after_rebuild,
        "filters_quarantined_total": db.stats.filters_quarantined,
        "post_rebuild_replay_fpr": (
            replay_hits / replayed if replayed else 0.0
        ),
        "post_rebuild_fpr": post_fpr,
        "post_rebuild_benign_fpr": post_benign_fpr,
    }


def blackbox_section(workdir: str, stored: list[int], sizes: dict) -> dict:
    """Timing-only attacker on the undefended store, oracle-validated."""
    db = build_store(
        f"{workdir}/blackbox", make_options(0, False), stored
    )
    try:
        attacker = AdversarialAttacker(
            db, mode="blackbox", seed=17, avoid=stored
        )
        learned = attacker.learn_points(sizes["learn_probes"])
        genuine = 0
        for key in learned:
            before = db.stats.filter_false_positives
            db.get(key)
            genuine += db.stats.filter_false_positives > before
        replayed, perceived_hits = attacker.replay(rounds=2, pressure=2)
        return {
            "mode": "blackbox",
            "learned": len(learned),
            "oracle_confirmed": genuine,
            "precision": genuine / len(learned) if learned else None,
            "replay_perceived_fpr": (
                perceived_hits / replayed if replayed else 0.0
            ),
        }
    finally:
        db.close()


def run_matrix(smoke: bool) -> dict:
    if smoke:
        sizes = {
            "num_keys": 2000,
            "benign_probes": 1600,
            "learn_probes": 2000,
            "replay_rounds": 4,
            "max_replay_probes": 3000,
            "post_probes": 2000,
        }
    else:
        sizes = {
            "num_keys": 5000,
            "benign_probes": 4000,
            "learn_probes": 5000,
            "replay_rounds": 5,
            "max_replay_probes": 8000,
            "post_probes": 5000,
        }
    rng = random.Random(42)
    stored = sorted(rng.sample(range(1 << KEY_BITS), sizes["num_keys"]))
    started = time.time()
    with tempfile.TemporaryDirectory(prefix="bench-adversarial-") as workdir:
        stores: dict[str, DB] = {}
        try:
            for label, salt_seed, quarantine in CONFIGS:
                stores[label] = build_store(
                    f"{workdir}/{label}", make_options(salt_seed, quarantine),
                    stored,
                )
            benign = benign_rates(
                stores, benign_queries(stored, sizes["benign_probes"], seed=11)
            )
            configs = [
                run_config(
                    stores[label], label, salt_seed, quarantine, stored,
                    sizes, benign[label],
                )
                for label, salt_seed, quarantine in CONFIGS
            ]
        finally:
            for db in stores.values():
                db.close()
        blackbox = blackbox_section(workdir, stored, sizes)
    return {
        "bench": "adversarial",
        "smoke": smoke,
        "key_bits": KEY_BITS,
        "bits_per_key": BITS_PER_KEY,
        "num_keys": sizes["num_keys"],
        "design_fpr": design_fpr(stored),
        "configs": configs,
        "blackbox": blackbox,
        "elapsed_seconds": round(time.time() - started, 2),
    }


def check(result: dict, smoke: bool) -> list[str]:
    """Acceptance criteria; returns a list of failure messages."""
    failures: list[str] = []
    design = result["design_fpr"]
    rows = {row["config"]: row for row in result["configs"]}
    undefended = rows["undefended"]
    baseline_ops = undefended["benign_ops_per_s"]

    # (a) the attack is real: observed FPR inflates >= 5x over benign
    # traffic on the undefended config, and the learned set survives the
    # undefended rebuild.
    benign_floor = max(undefended["benign_fpr"], design / 2)
    if undefended["attack_fpr"] < 5 * benign_floor:
        failures.append(
            f"undefended attack FPR {undefended['attack_fpr']:.4f} is not "
            f">= 5x benign {benign_floor:.4f}"
        )
    if undefended["post_rebuild_replay_fpr"] < 0.5:
        failures.append(
            "undefended rebuild should NOT shake the attacker: learned "
            f"replay FPR fell to {undefended['post_rebuild_replay_fpr']:.3f}"
        )

    # (b) the defense works: both defended configs return to within 2x of
    # design FPR after rebuild, at benign throughput within tolerance.
    ops_floor = 0.75 if smoke else 0.95
    for label in ("salted", "salted+quarantine"):
        row = rows[label]
        if row["attack_fpr"] < 5 * max(row["benign_fpr"], design / 2):
            failures.append(
                f"{label}: attack never inflated FPR "
                f"({row['attack_fpr']:.4f}) — nothing to defend against"
            )
        if row["post_rebuild_fpr"] > 2 * design:
            failures.append(
                f"{label}: post-rebuild FPR {row['post_rebuild_fpr']:.4f} "
                f"exceeds 2x design {design:.4f}"
            )
        if row["benign_ops_per_s"] < ops_floor * baseline_ops:
            failures.append(
                f"{label}: benign throughput {row['benign_ops_per_s']} "
                f"below {ops_floor:.0%} of undefended {baseline_ops}"
            )

    quarantine = rows["salted+quarantine"]
    if quarantine["filters_under_attack_during_attack"] < 1:
        failures.append("quarantine detector never flagged the attacked run")
    if quarantine["filters_under_attack_after_rebuild"] != 0:
        failures.append("quarantine flag not cleared by the rebuild")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="small CI matrix"
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless attack and defense criteria hold",
    )
    args = parser.parse_args(argv)

    result = run_matrix(args.smoke)
    for row in result["configs"]:
        print(
            f"{row['config']:>18}: benign fpr {row['benign_fpr']:.4f} "
            f"({row['benign_ops_per_s']:.0f} ops/s), attack fpr "
            f"{row['attack_fpr']:.4f}, post-rebuild replay fpr "
            f"{row['post_rebuild_replay_fpr']:.3f}, post-rebuild fpr "
            f"{row['post_rebuild_fpr']:.4f}, flagged "
            f"{row['filters_under_attack_during_attack']}"
        )
    bb = result["blackbox"]
    print(
        f"          blackbox: learned {bb['learned']} "
        f"(oracle-confirmed {bb['oracle_confirmed']}), perceived replay "
        f"fpr {bb['replay_perceived_fpr']:.3f}"
    )
    if not args.smoke:
        RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")
        print(f"-> {RESULT_PATH.name}")
    print(f"elapsed {result['elapsed_seconds']}s")

    if args.check:
        failures = check(result, args.smoke)
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print("all adversarial hardening checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
