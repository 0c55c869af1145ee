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
* **a sound image**: :meth:`~repro.lsm.db.DB.verify` finds every SST's
  blocks, fences, meta block and filter intact and the levels disjoint;
* **recovery itself never raises**.

Because crash points enumerate *every* durable operation the schedule
performs, one seed sweeps the full matrix of "what if the power died
here" — including mid-append torn WAL frames, between SST write and
manifest replace, between manifest replace and WAL truncate, and between
compaction install and input-file GC.

Maintenance runs inline on the writing thread, so a cut that lands
mid-flush or mid-compaction surfaces to the op that triggered it, and the
same (seed, crash point) pair always replays the same run.

The op vocabulary and its dict model (:func:`_effects`, :func:`expected`)
are shared with the chaos harness (:mod:`repro.lsm.chaos`), which adds the
read ops ``("get", key)``, ``("multi_get", keys)`` and
``("range", low, high)``.

Shared by ``tests/lsm/test_crash_recovery.py`` (small matrices, run in
the tier-1 suite) and ``benchmarks/torture.py`` (the full seed matrix).
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

__all__ = [
    "TortureConfig",
    "CrashPointResult",
    "SeedReport",
    "build_schedule",
    "expected",
    "run_crash_point",
    "torture_seed",
    "transient_fault_equivalence",
    "torture_options",
]


#: At most 5 items per ``batch`` op, value payloads repeated 3 times, and
#: 6 block-read retries (generous: rate-injected runs must finish).
_BATCH_MAX = 5
_VALUE_REPEAT = 3
_IO_RETRY_ATTEMPTS = 6

#: Probability mass given to plain puts; the rest splits 17 : 16 : 8 : 4
#: over delete, batch, flush and compact (the cuts below).  The SHA-256
#: pin in ``tests/lsm/test_crash_recovery.py`` holds this arithmetic.
_PUT_BIAS = 0.55
_DELETE_CUT = _PUT_BIAS + (1.0 - _PUT_BIAS) * (17 / 45)
_BATCH_CUT = _PUT_BIAS + (1.0 - _PUT_BIAS) * (33 / 45)
_FLUSH_CUT = _PUT_BIAS + (1.0 - _PUT_BIAS) * (41 / 45)


@dataclass(frozen=True)
class TortureConfig:
    """Shape of one torture workload (kept tiny so crash sweeps stay fast)."""

    num_ops: int = 36
    key_space: int = 96
    #: Per-SST filter-salting seed (0 = unsalted, the historical format).
    #: Salted configs prove the salt survives power cuts: it rides in the
    #: filter envelope inside the SST, so a recovered store probes every
    #: surviving run with the exact hash family it was built with.
    filter_salt_seed: int = 0


def torture_options(config: TortureConfig, env_factory=None) -> DBOptions:
    """A deliberately tiny store: every schedule crosses flush/compaction."""
    def build(keys, salt=0):
        filt = RosettaFilter(
            key_bits=32, bits_per_key=14.0, max_range=32, salt=salt
        )
        filt.populate(keys)
        return filt

    factory = FilterFactory(
        name="rosetta-torture",
        builder=build,
        bits_per_key=14.0,
        salt_capable=True,
    )
    return DBOptions(
        key_bits=32,
        memtable_size_bytes=1024,  # the options floor: frequent seals
        sst_size_bytes=4096,
        block_size_bytes=512,
        block_cache_bytes=0,  # every read touches the (possibly hostile) device
        level0_file_num_compaction_trigger=2,
        max_bytes_for_level_base=8192,
        filter_factory=factory,
        filter_salt_seed=config.filter_salt_seed,
        io_retry_attempts=_IO_RETRY_ATTEMPTS,
        env_factory=env_factory,
    )


def build_schedule(seed: int, config: TortureConfig) -> list[tuple]:
    """Deterministic op list; values are unique per (seed, op index)."""
    rng = random.Random(seed)
    ops: list[tuple] = []
    for index in range(config.num_ops):
        value = f"s{seed}o{index}".encode() * _VALUE_REPEAT
        draw = rng.random()
        if draw < _PUT_BIAS:
            ops.append(("put", rng.randrange(config.key_space), value))
        elif draw < _DELETE_CUT:
            ops.append(("delete", rng.randrange(config.key_space)))
        elif draw < _BATCH_CUT:
            keys = rng.sample(range(config.key_space), rng.randint(1, _BATCH_MAX))
            items = tuple(
                (
                    ("delete", key, None)
                    if rng.random() < 0.3
                    else ("put", key, value + b"#%d" % position)
                )
                for position, key in enumerate(keys)
            )
            ops.append(("batch", items))
        elif draw < _FLUSH_CUT:
            ops.append(("flush",))
        else:
            ops.append(("compact",))
    return ops


def _apply(db, op: tuple) -> None:
    """Run one write or maintenance op on a ``DB`` (or anything with its
    ``put`` / ``delete`` / ``batch`` / ``write`` / ``flush`` / ``compact``)."""
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


def _effects(op: tuple) -> dict[int, bytes | None]:
    """Post-state of every key ``op`` writes (None = deleted).

    The dict model is ``model.update(_effects(op))`` once ``op`` is
    acknowledged; reads, flush, compact and close write nothing.
    """
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
    return {}


def expected(model: dict[int, bytes | None], op: tuple):
    """The model's answer to a read op: get, multi_get or range."""
    kind = op[0]
    if kind == "get":
        return model.get(op[1])
    if kind == "multi_get":
        return {key: model.get(key) for key in op[1]}
    if kind == "range":
        low, high = op[1], op[2]
        return sorted(
            (key, value)
            for key, value in model.items()
            if low <= key <= high and value is not None
        )
    raise ValueError(f"not a read op: {op!r}")


@dataclass
class CrashPointResult:
    """Outcome of one (seed, crash point) run."""

    crash_point: int
    crashed: bool              # False = schedule finished before the cut
    durable_ops: int
    acked_ops: int
    violations: list[str] = field(default_factory=list)


@dataclass
class SeedReport:
    """Outcome of one seed's full crash-point sweep."""

    seed: int
    crash_points: int = 0      # durable ops enumerated == runs that crashed
    violations: list[str] = field(default_factory=list)


def run_crash_point(
    base_dir: str,
    seed: int,
    crash_point: int,
    config: TortureConfig,
) -> CrashPointResult:
    """Replay seed's schedule, cut power at ``crash_point``, verify recovery.

    The op the cut interrupts raises :class:`PowerCutError`; the store is
    killed (no further I/O), the seeded partial crash effects applied, and
    recovery verified against the model under the acked/in-flight rules.
    """
    path = os.path.join(base_dir, f"s{seed}-cp{crash_point}")
    env_seed = seed * 1_000_003 + crash_point

    def factory(root, device, stats):
        return FaultInjectionEnv(root, device, stats, seed=env_seed)

    model: dict[int, bytes | None] = {}
    pending: dict[int, bytes | None] = {}
    acked = 0
    crashed = False
    db = DB(path, torture_options(config, env_factory=factory))
    env = db._env
    env.schedule_crash(crash_point)
    try:
        for op in build_schedule(seed, config):
            pending = _effects(op)
            _apply(db, op)
            model.update(pending)
            pending = {}
            acked += 1
        db.close()
    except PowerCutError:
        crashed = True
    finally:
        # Stop all further I/O before mutating the image.
        db.kill()

    result = CrashPointResult(
        crash_point=crash_point,
        crashed=crashed or env.crashed,
        durable_ops=env.durable_ops,
        acked_ops=acked,
    )
    if result.crashed:
        env.crash()
        result.violations = _verify_recovery(path, config, model, pending)
    shutil.rmtree(path, ignore_errors=True)
    return result


def _verify_recovery(
    path: str,
    config: TortureConfig,
    model: dict[int, bytes | None],
    pending: dict[int, bytes | None],
) -> list[str]:
    def allowed(key: int, got: bytes | None) -> bool:
        return got == model.get(key) or (key in pending and got == pending[key])

    violations: list[str] = []
    try:
        db = DB(path, torture_options(config))
    except Exception as exc:  # recovery must never raise, whatever the cut
        return [f"recovery raised {type(exc).__name__}: {exc}"]
    try:
        # Structure first: every block's checksum and order, fence and meta
        # agreement, the filters, disjoint levels.  The reads below would
        # only trip over the same damage.
        report = db.verify()
        if not report.ok:
            return [f"verify: {error}" for error in report.errors]
        for key in range(config.key_space):
            got = db.get(key)
            old = model.get(key)
            if allowed(key, got):
                continue
            if key in pending:
                violations.append(
                    f"key {key}: got {got!r}, expected acked {old!r} "
                    f"or in-flight {pending[key]!r}"
                )
            else:
                kind = "lost acknowledged write" if got is None else "wrong read"
                violations.append(
                    f"key {key}: {kind} — got {got!r}, expected {old!r}"
                )
        # All-or-nothing: keys the in-flight op changes must agree on
        # which side of it they observed.
        informative = {
            key: new for key, new in pending.items() if model.get(key) != new
        }
        if len(informative) > 1:
            states = {key: db.get(key) for key in informative}
            all_old = all(states[key] == model.get(key) for key in informative)
            all_new = all(states[key] == informative[key] for key in informative)
            if not (all_old or all_new):
                violations.append(
                    f"torn batch: per-key outcomes {states!r} are neither "
                    f"all-old nor all-new"
                )
        # A full scan must agree with the point lookups (no phantoms).
        violations.extend(
            f"scan mismatch at key {key}: {value!r}, expected "
            f"{model.get(key)!r}"
            for key, value in db.iterator()
            if not allowed(key, value)
        )
        # Zombie-run hygiene: after recovery the on-disk image must be
        # exactly the manifest — a cut between a compaction install and its
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
    base_dir: str,
    seed: int,
    config: TortureConfig | None = None,
) -> SeedReport:
    """Sweep every crash point of one seed."""
    config = config if config is not None else TortureConfig()
    report = SeedReport(seed=seed)
    crash_point = 1
    while True:
        result = run_crash_point(base_dir, seed, crash_point, config)
        if not result.crashed:
            # The schedule (incl. close) finished before the countdown:
            # the crash-point space is exhausted.
            break
        report.crash_points += 1
        report.violations.extend(
            f"seed={seed} crash_point={crash_point}: {violation}"
            for violation in result.violations
        )
        crash_point += 1
    return report


def _answers(
    base_dir: str, label: str, seed: int, config: TortureConfig,
    options: DBOptions,
) -> tuple[DB, dict, dict]:
    """Run seed's schedule to completion; return the closed store and its
    point and range answers."""
    path = os.path.join(base_dir, f"{label}-s{seed}")
    db = DB(path, options)
    for op in build_schedule(seed, config):
        _apply(db, op)
    points = {key: db.get(key) for key in range(config.key_space)}
    span = max(config.key_space // 4, 1)
    ranges = {
        (low, low + span): db.range_query(low, low + span)
        for low in range(0, config.key_space, span)
    }
    # Close before the caller snapshots health or stats: the final
    # flush/compaction can still hit (and retry) injected faults.
    db.close()
    shutil.rmtree(path, ignore_errors=True)
    return db, points, ranges


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

    def faulty_env(root, device, stats):
        return FaultInjectionEnv(
            root, device, stats, seed=seed, transient_read_error_rate=rate
        )

    _, clean_points, clean_ranges = _answers(
        base_dir, "equiv-clean", seed, config, torture_options(config)
    )
    db, points, ranges = _answers(
        base_dir, "equiv-faulty", seed, config,
        torture_options(config, env_factory=faulty_env),
    )
    health = db.health()
    return {
        "seed": seed,
        "answers_match": points == clean_points and ranges == clean_ranges,
        "injected_transient_errors": db._env.injected["transient_read_errors"],
        "observed_transient_errors": health.io_transient_errors,
        "io_retries": health.io_retries,
        "health": health,
    }

