"""Crash-recovery torture harness.

The executable statement of the store's durability contract.  For one seed
it builds a randomized schedule of ``put`` / ``delete`` / ``batch`` /
``flush`` / ``compact`` operations, then replays that schedule once per
*crash point*: run *k* powers the store off at the *k*-th durable I/O
operation (see :class:`~repro.lsm.faults.FaultInjectionEnv`), applies the
power cut, reopens the store cold, and checks it against an in-memory
model under the WAL contract —

* **no acknowledged write lost**: every operation that returned before the
  cut is fully visible after recovery;
* **the in-flight operation is all-or-nothing**: a torn batch never
  applies partially, a torn WAL tail is never resurrected;
* **no wrong reads**: no key reports a value the model never acknowledged,
  and a full scan agrees with point lookups;
* **recovery itself never raises**.

Because crash points enumerate *every* durable operation the schedule
performs, one seed sweeps the full matrix of "what if the power died
here" — including mid-append torn WAL frames, between SST write and
manifest replace, between manifest replace and WAL truncate, and between
compaction install and input-file GC.

Shared by ``tests/lsm/test_crash_recovery.py`` (small matrix, runs in CI's
tier-1 suite) and ``benchmarks/torture.py`` (the full seed matrix).
"""

from __future__ import annotations

import os
import random
import shutil
from dataclasses import dataclass, field

from repro.errors import PowerCutError
from repro.filters.base import FilterFactory
from repro.filters.rosetta_adapter import RosettaFilter
from repro.lsm.db import DB
from repro.lsm.faults import FaultInjectionEnv
from repro.lsm.options import DBOptions
from repro.lsm.scheduler import DeterministicScheduler

__all__ = [
    "TortureConfig",
    "CrashPointResult",
    "SeedReport",
    "build_schedule",
    "run_crash_point",
    "torture_seed",
    "transient_fault_equivalence",
    "torture_options",
    "concurrent_torture_options",
    "run_concurrent_crash_point",
    "concurrent_torture_seed",
    "schedule_equivalence",
]


@dataclass(frozen=True)
class TortureConfig:
    """Shape of one torture workload (kept tiny so crash sweeps stay fast)."""

    num_ops: int = 36
    key_space: int = 96
    batch_max: int = 5
    value_repeat: int = 3          # value payload size multiplier
    with_filters: bool = True
    io_retry_attempts: int = 6     # generous: rate-injected runs must finish
    #: Probability mass given to plain puts.  The default keeps the
    #: historical op mix (and thus every existing seed's schedule)
    #: byte-identical; overlap-focused configs raise it so seals come fast
    #: enough for flushes and compactions to genuinely collide.
    put_bias: float = 0.55
    #: Seal threshold for the store under test (options floor: 1 KiB).
    #: Background jobs yield only at durable writes, so to observe
    #: overlapping jobs the writer must seal within a job's handful of
    #: yields — overlap configs keep this at the floor and grow
    #: ``value_repeat`` until nearly every put seals.
    memtable_size_bytes: int = 1024
    #: Source-run window width for leveled compaction (the DBOptions
    #: default).  Overlap configs drop it to 1 so an oversize level yields
    #: several single-run jobs with disjoint footprints — the shape that
    #: exercises two leveled compactions in flight in one level pair.
    max_compaction_input_files: int = 4
    #: Per-SST filter-salting seed (0 = unsalted, the historical format).
    #: Salted configs prove the salt survives power cuts: it rides in the
    #: filter envelope inside the SST, so a recovered store probes every
    #: surviving run with the exact hash family it was built with.
    filter_salt_seed: int = 0


def torture_options(
    config: TortureConfig, env_factory=None, transient_rate: float = 0.0
) -> DBOptions:
    """A deliberately tiny store: every schedule crosses flush/compaction."""
    factory = None
    if config.with_filters:
        def build(keys, salt=0):
            filt = RosettaFilter(
                key_bits=32, bits_per_key=14.0, max_range=32, salt=salt
            )
            filt.populate(keys)
            return filt

        factory = FilterFactory(
            name="rosetta-torture", builder=build, bits_per_key=14.0
        )
    return DBOptions(
        key_bits=32,
        memtable_size_bytes=config.memtable_size_bytes,
        sst_size_bytes=4096,
        block_size_bytes=512,
        block_cache_bytes=0,  # every read touches the (possibly hostile) device
        level0_file_num_compaction_trigger=2,
        max_bytes_for_level_base=8192,
        max_compaction_input_files=config.max_compaction_input_files,
        filter_factory=factory,
        filter_salt_seed=config.filter_salt_seed,
        io_retry_attempts=config.io_retry_attempts,
        env_factory=env_factory,
    )


def build_schedule(seed: int, config: TortureConfig) -> list[tuple]:
    """Deterministic op list; values are unique per (seed, op index)."""
    rng = random.Random(seed)
    ops: list[tuple] = []
    # The non-put op kinds keep their historical relative proportions
    # (17 : 16 : 8 : 4 out of the default 45% non-put mass).
    if config.put_bias == 0.55:
        # Exact historical thresholds: every pre-existing seed's schedule
        # stays byte-identical (no float round-trip through the ratios).
        delete_cut, batch_cut, flush_cut = 0.72, 0.88, 0.96
    else:
        rest = max(1.0 - config.put_bias, 1e-9)
        delete_cut = config.put_bias + rest * (17 / 45)
        batch_cut = config.put_bias + rest * (33 / 45)
        flush_cut = config.put_bias + rest * (41 / 45)
    for index in range(config.num_ops):
        value = f"s{seed}o{index}".encode() * config.value_repeat
        draw = rng.random()
        if draw < config.put_bias:
            ops.append(("put", rng.randrange(config.key_space), value))
        elif draw < delete_cut:
            ops.append(("delete", rng.randrange(config.key_space)))
        elif draw < batch_cut:
            keys = rng.sample(
                range(config.key_space), rng.randint(1, config.batch_max)
            )
            items = tuple(
                (
                    ("delete", key, None)
                    if rng.random() < 0.3
                    else ("put", key, value + b"#%d" % position)
                )
                for position, key in enumerate(keys)
            )
            ops.append(("batch", items))
        elif draw < flush_cut:
            ops.append(("flush",))
        else:
            ops.append(("compact",))
    return ops


def _apply(db: DB, op: tuple) -> None:
    kind = op[0]
    if kind == "put":
        db.put(op[1], op[2])
    elif kind == "delete":
        db.delete(op[1])
    elif kind == "batch":
        batch = db.batch()
        for item_kind, key, value in op[1]:
            if item_kind == "put":
                batch.put_int(key, value)
            else:
                batch.delete_int(key)
        db.write(batch)
    elif kind == "flush":
        db.flush()
    elif kind == "compact":
        db.compact()


def _commit(model: dict[int, bytes], op: tuple) -> None:
    kind = op[0]
    if kind == "put":
        model[op[1]] = op[2]
    elif kind == "delete":
        model.pop(op[1], None)
    elif kind == "batch":
        for item_kind, key, value in op[1]:
            if item_kind == "put":
                model[key] = value
            else:
                model.pop(key, None)


def _pending_effects(op: tuple | None) -> dict[int, bytes | None]:
    """Post-state each key would have if the in-flight op had completed."""
    if op is None:
        return {}
    kind = op[0]
    if kind == "put":
        return {op[1]: op[2]}
    if kind == "delete":
        return {op[1]: None}
    if kind == "batch":
        return {
            key: (value if item_kind == "put" else None)
            for item_kind, key, value in op[1]
        }
    return {}  # flush/compact/close carry no user mutations


@dataclass
class CrashPointResult:
    """Outcome of one (seed, crash point) run."""

    crash_point: int
    crashed: bool              # False = schedule finished before the cut
    durable_ops: int
    acked_ops: int
    violations: list[str] = field(default_factory=list)
    #: Maintenance overlap observed before the cut (concurrent runs only):
    #: dispatches that joined a live job, the in-flight high-water mark,
    #: and leveled jobs admitted into an already-busy level pair on the
    #: strength of a disjoint key-range footprint.
    jobs_overlapped: int = 0
    max_jobs_in_flight: int = 0
    leveled_range_admissions: int = 0


@dataclass
class SeedReport:
    """Outcome of one seed's full crash-point sweep."""

    seed: int
    crash_points: int          # durable ops enumerated == runs that crashed
    recoveries: int
    violations: list[str] = field(default_factory=list)
    #: Aggregated over the sweep (concurrent runs only): crash points whose
    #: run had overlapping jobs, the highest in-flight count seen, and the
    #: total range-disjoint same-level-pair leveled admissions.
    overlapped_crash_points: int = 0
    max_jobs_in_flight: int = 0
    leveled_range_admissions: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


def run_crash_point(
    base_dir: str, seed: int, crash_point: int, config: TortureConfig
) -> CrashPointResult:
    """Replay seed's schedule, cut power at ``crash_point``, verify recovery."""
    path = os.path.join(base_dir, f"s{seed}-cp{crash_point}")
    holder: dict[str, FaultInjectionEnv] = {}

    def factory(root, device, stats):
        env = FaultInjectionEnv(
            root, device, stats, seed=seed * 1_000_003 + crash_point
        )
        holder["env"] = env
        return env

    model: dict[int, bytes] = {}
    pending: tuple | None = None
    acked = 0
    crashed = False
    db = DB(path, torture_options(config, env_factory=factory))
    env = holder["env"]
    env.schedule_crash(crash_point)
    try:
        for op in build_schedule(seed, config):
            pending = op
            _apply(db, op)
            _commit(model, op)
            pending = None
            acked += 1
        pending = ("close",)
        db.close()
        pending = None
    except PowerCutError:
        crashed = True

    result = CrashPointResult(
        crash_point=crash_point,
        crashed=crashed,
        durable_ops=env.durable_ops,
        acked_ops=acked,
    )
    if crashed:
        env.crash()
        result.violations = _verify_recovery(path, config, model, pending)
    shutil.rmtree(path, ignore_errors=True)
    return result


def _verify_recovery(
    path: str,
    config: TortureConfig,
    model: dict[int, bytes],
    pending: tuple | None,
) -> list[str]:
    violations: list[str] = []
    try:
        db = DB(path, torture_options(config))
    except Exception as exc:  # recovery must never raise, whatever the cut
        return [f"recovery raised {type(exc).__name__}: {exc}"]
    try:
        allowed_new = _pending_effects(pending)
        for key in range(config.key_space):
            got = db.get(key)
            old = model.get(key)
            if key in allowed_new:
                if got != old and got != allowed_new[key]:
                    violations.append(
                        f"key {key}: got {got!r}, expected acked {old!r} "
                        f"or in-flight {allowed_new[key]!r}"
                    )
            elif got != old:
                kind = "lost acknowledged write" if got is None else "wrong read"
                violations.append(
                    f"key {key}: {kind} — got {got!r}, expected {old!r}"
                )
        if pending is not None and pending[0] == "batch":
            # All-or-nothing: keys whose old and new states differ must
            # agree on which side of the batch they observed.
            informative = {
                key: new
                for key, new in allowed_new.items()
                if model.get(key) != new
            }
            if informative:
                states = {key: db.get(key) for key in informative}
                all_old = all(
                    states[key] == model.get(key) for key in informative
                )
                all_new = all(
                    states[key] == informative[key] for key in informative
                )
                if not (all_old or all_new):
                    violations.append(
                        f"torn batch: per-key outcomes {states!r} are neither "
                        f"all-old nor all-new"
                    )
        # A full scan must agree with the point lookups (no phantoms).
        scanned = dict(db.iterator())
        for key, value in scanned.items():
            expected = model.get(key)
            if key in allowed_new:
                if value != expected and value != allowed_new[key]:
                    violations.append(f"scan phantom at key {key}: {value!r}")
            elif value != expected:
                violations.append(
                    f"scan mismatch at key {key}: {value!r} != {expected!r}"
                )
        # Zombie-run hygiene: after recovery the on-disk image must be
        # exactly the manifest — a cut between a concurrent install and its
        # input GC must not leak orphan SSTs, and no temp files survive.
        live = {run.name for run in db._super.version.all_runs_newest_first()}
        on_disk = {
            name for name in os.listdir(path) if name.endswith(".sst")
        }
        leaked = on_disk - live
        if leaked:
            violations.append(
                f"zombie sst files after recovery: {sorted(leaked)}"
            )
        temps = sorted(
            name for name in os.listdir(path) if name.endswith(".tmp")
        )
        if temps:
            violations.append(f"temp files survived recovery: {temps}")
    finally:
        db.close()
    return violations


def torture_seed(
    base_dir: str, seed: int, config: TortureConfig | None = None
) -> SeedReport:
    """Sweep every crash point of one seed's schedule."""
    config = config if config is not None else TortureConfig()
    report = SeedReport(seed=seed, crash_points=0, recoveries=0)
    crash_point = 1
    while True:
        result = run_crash_point(base_dir, seed, crash_point, config)
        if not result.crashed:
            # The schedule (incl. close) finished before the countdown: the
            # crash-point space is exhausted.
            return report
        report.crash_points += 1
        report.recoveries += 1
        report.violations.extend(
            f"seed={seed} crash_point={crash_point}: {violation}"
            for violation in result.violations
        )
        crash_point += 1


def transient_fault_equivalence(
    base_dir: str,
    seed: int,
    config: TortureConfig | None = None,
    rate: float = 0.05,
) -> dict:
    """Same workload, fault-free vs. transient-read-faults-with-retries.

    Builds the seed's store twice — once on a clean env, once on a
    :class:`FaultInjectionEnv` injecting transient read errors at ``rate``
    — then compares every point lookup and a sample of range queries.
    With retries enabled the answers must be identical, and every injected
    fault must be visible in ``PerfStats`` / ``DB.health()``.
    """
    config = config if config is not None else TortureConfig()
    answers: list[dict] = []
    holder: dict[str, FaultInjectionEnv] = {}
    for label, env_factory in (
        ("clean", None),
        (
            "faulty",
            lambda root, device, stats: holder.setdefault(
                "env",
                FaultInjectionEnv(
                    root, device, stats,
                    seed=seed, transient_read_error_rate=rate,
                ),
            ),
        ),
    ):
        path = os.path.join(base_dir, f"equiv-{label}-s{seed}")
        db = DB(path, torture_options(config, env_factory=env_factory))
        for op in build_schedule(seed, config):
            _apply(db, op)
        points = {key: db.get(key) for key in range(config.key_space)}
        span = max(config.key_space // 4, 1)
        ranges = {
            (low, low + span): db.range_query(low, low + span)
            for low in range(0, config.key_space, span)
        }
        # Close before snapshotting health: the final flush/compaction can
        # still hit (and retry) injected faults, which must all be counted.
        db.close()
        answers.append(
            {
                "label": label,
                "points": points,
                "ranges": ranges,
                "health": db.health(),
            }
        )
        shutil.rmtree(path, ignore_errors=True)
    clean, faulty = answers
    env = holder["env"]
    return {
        "seed": seed,
        "answers_match": (
            clean["points"] == faulty["points"]
            and clean["ranges"] == faulty["ranges"]
        ),
        "injected_transient_errors": env.injected["transient_read_errors"],
        "observed_transient_errors": faulty["health"].io_transient_errors,
        "io_retries": faulty["health"].io_retries,
        "health": faulty["health"],
    }


# ----------------------------------------------------------------------
# Concurrent-maintenance torture (deterministic interleavings)
# ----------------------------------------------------------------------
def concurrent_torture_options(
    config: TortureConfig,
    sched_seed: int,
    env_factory=None,
) -> DBOptions:
    """Torture options with background workers on a seeded deterministic
    scheduler.

    Backpressure triggers are set aggressively low (slowdown at 3 L0 runs,
    stop at 4, two sealed memtables max) so the tiny torture workload
    actually crosses the slowdown/stop state machine, and the
    :class:`~repro.lsm.scheduler.DeterministicScheduler` turns worker
    interleaving into a pure function of ``sched_seed`` — every run is
    replayable, including ones that power off mid-superversion-install.
    """
    options = torture_options(config, env_factory=env_factory)
    options.max_background_jobs = 2
    options.max_immutable_memtables = 2
    options.level0_slowdown_writes_trigger = 3
    options.level0_stop_writes_trigger = 4
    options.scheduler_factory = (
        lambda _options: DeterministicScheduler(seed=sched_seed)
    )
    options.validate()
    return options


def run_concurrent_crash_point(
    base_dir: str,
    seed: int,
    sched_seed: int,
    crash_point: int,
    config: TortureConfig,
) -> CrashPointResult:
    """One (workload seed, scheduler seed, crash point) run with workers.

    Identical contract to :func:`run_crash_point`, but flush/compaction run
    on deterministic background jobs, so the power cut can land while a
    worker is mid-flush, mid-compaction, or mid-superversion-install —
    interleavings the inline sweep can never produce.  The foreground
    writer may observe the cut indirectly (its next WAL append, stall
    wait, or ``close()`` raises :class:`PowerCutError`); either way the
    store is killed (workers joined, no further I/O), the seeded partial
    crash effects applied, and recovery verified against the model with
    the same acked/in-flight rules.
    """
    path = os.path.join(base_dir, f"s{seed}-g{sched_seed}-cp{crash_point}")
    holder: dict[str, FaultInjectionEnv] = {}

    def factory(root, device, stats):
        env = FaultInjectionEnv(
            root,
            device,
            stats,
            seed=(seed * 1_000_003 + crash_point) ^ (sched_seed * 7_368_787),
        )
        holder["env"] = env
        return env

    model: dict[int, bytes] = {}
    pending: tuple | None = None
    acked = 0
    crashed = False
    db = DB(path, concurrent_torture_options(config, sched_seed, env_factory=factory))
    env = holder["env"]
    env.schedule_crash(crash_point)
    try:
        for op in build_schedule(seed, config):
            pending = op
            _apply(db, op)
            _commit(model, op)
            pending = None
            acked += 1
        pending = ("close",)
        db.close()
        pending = None
    except PowerCutError:
        crashed = True
    finally:
        # Join workers and stop all further I/O before mutating the image.
        # A cut observed only by a background job leaves the foreground
        # loop running to completion; kill() is idempotent either way.
        db.kill()

    result = CrashPointResult(
        crash_point=crash_point,
        crashed=crashed or env.crashed,
        durable_ops=env.durable_ops,
        acked_ops=acked,
        jobs_overlapped=db.stats.jobs_overlapped,
        max_jobs_in_flight=db.stats.max_jobs_in_flight,
        leveled_range_admissions=db.stats.leveled_range_admissions,
    )
    if result.crashed:
        env.crash()
        result.violations = _verify_recovery(path, config, model, pending)
    shutil.rmtree(path, ignore_errors=True)
    return result


def concurrent_torture_seed(
    base_dir: str,
    seed: int,
    config: TortureConfig | None = None,
    sched_seeds: tuple[int, ...] = (0, 1),
) -> SeedReport:
    """Sweep every crash point of one seed under each scheduler seed."""
    config = config if config is not None else TortureConfig()
    report = SeedReport(seed=seed, crash_points=0, recoveries=0)
    for sched_seed in sched_seeds:
        crash_point = 1
        while True:
            result = run_concurrent_crash_point(
                base_dir, seed, sched_seed, crash_point, config
            )
            report.max_jobs_in_flight = max(
                report.max_jobs_in_flight, result.max_jobs_in_flight
            )
            report.leveled_range_admissions += result.leveled_range_admissions
            if result.jobs_overlapped:
                report.overlapped_crash_points += 1
            if not result.crashed:
                break
            report.crash_points += 1
            report.recoveries += 1
            report.violations.extend(
                f"seed={seed} sched_seed={sched_seed} "
                f"crash_point={crash_point}: {violation}"
                for violation in result.violations
            )
            crash_point += 1
    return report


def schedule_equivalence(
    base_dir: str,
    seed: int,
    config: TortureConfig | None = None,
    sched_seeds: tuple[int, ...] = (0, 1, 2),
) -> dict:
    """Same workload, crash-free, across interleavings: answers must match.

    Runs one seed's schedule to completion inline (the historical
    synchronous semantics) and once per scheduler seed with background
    workers, then compares every point lookup and a grid of range queries.
    Background maintenance may only change *when* flushes and compactions
    happen — never what the store answers.
    """
    config = config if config is not None else TortureConfig()
    schedule = build_schedule(seed, config)

    def run(label: str, options: DBOptions) -> dict:
        path = os.path.join(base_dir, f"sched-equiv-{label}-s{seed}")
        db = DB(path, options)
        for op in schedule:
            _apply(db, op)
        db.wait_idle()
        points = {key: db.get(key) for key in range(config.key_space)}
        span = max(config.key_space // 4, 1)
        ranges = {
            (low, low + span): db.range_query(low, low + span)
            for low in range(0, config.key_space, span)
        }
        db.close()
        shutil.rmtree(path, ignore_errors=True)
        return {
            "points": points,
            "ranges": ranges,
            "jobs_overlapped": db.stats.jobs_overlapped,
            "max_jobs_in_flight": db.stats.max_jobs_in_flight,
            "leveled_range_admissions": db.stats.leveled_range_admissions,
        }

    outcomes = {"inline": run("inline", torture_options(config))}
    for sched_seed in sched_seeds:
        outcomes[f"sched{sched_seed}"] = run(
            f"g{sched_seed}", concurrent_torture_options(config, sched_seed)
        )
    baseline = outcomes["inline"]
    mismatches = [
        label
        for label, outcome in outcomes.items()
        if outcome["points"] != baseline["points"]
        or outcome["ranges"] != baseline["ranges"]
    ]
    concurrent = [
        outcome
        for label, outcome in outcomes.items()
        if label != "inline"
    ]
    return {
        "seed": seed,
        "interleavings": len(outcomes),
        "equivalent": not mismatches,
        "mismatches": mismatches,
        "jobs_overlapped": sum(o["jobs_overlapped"] for o in concurrent),
        "max_jobs_in_flight": max(
            (o["max_jobs_in_flight"] for o in concurrent), default=0
        ),
        "leveled_range_admissions": sum(
            o["leveled_range_admissions"] for o in concurrent
        ),
    }
