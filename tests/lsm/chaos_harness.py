"""Chaos harness: concurrent mixed traffic against fault-injected shards.

The fault-tolerance contract of :class:`~repro.lsm.serving.ShardedServer`
is behavioral, not structural: *under faults, every request either
returns the correct answer or raises a typed serving error within its
deadline* — no hangs, no wrong answers, no stranded futures.  This
module drives that contract end to end on real threads (the seeded,
one-thread schedules of ``tests/lsm/test_serving_schedule.py`` drive it
interleaving by interleaving):

* every shard DB runs on a :class:`~repro.lsm.faults.FaultInjectionEnv`
  (captured through ``DBOptions.env_factory``);
* concurrent client threads issue a seeded mix of ``get`` /
  ``multi_get`` / ``range_query`` / ``put`` while an injector thread
  arms transient read faults and background write faults
  (degraded-mode flips);
* the key domain is split so answers are checkable under concurrency:
  the lower half is preloaded once and never written again (every read
  there has one correct answer), and the upper half is divided into
  per-client disjoint write slices (nobody else touches a client's
  slice, so each client checks every read against one dict — the stable
  region plus its own acked writes — through the op model it shares with
  the torture harness: :func:`repro.lsm.torture._effects` for writes,
  :func:`expected` for reads);
* every async read is collected with a bounded ``Future.result`` wait;
  a timeout is a **hang violation**, a non-allowlisted exception is a
  **typed-error violation**, and a mismatched answer is a **wrong-answer
  violation**.  A clean run reports zero violations.

After the traffic stops, a final integrity sweep reads the stable
region straight from the shard DBs (bypassing the serving layer) to
prove the data itself survived the chaos.

:func:`run_chaos` returns a :class:`ChaosReport`;
``tests/lsm/test_chaos.py`` runs it once per defence configuration.
"""

from __future__ import annotations

import concurrent.futures
import random
import threading
from collections import Counter
from dataclasses import dataclass, field

from repro.errors import (
    ClosedStoreError,
    DeadlineExceededError,
    QueueFullError,
    ReadOnlyStoreError,
    ShardUnavailableError,
    TransientIOError,
)
from repro.lsm.db import DB
from repro.lsm.faults import FaultInjectionEnv
from repro.lsm.options import DBOptions
from repro.lsm.serving import ServingOptions, ShardedServer
from repro.lsm.torture import _apply, _effects

#: Exceptions a request may legitimately surface under faults.  Anything
#: else escaping the serving layer is a violation — the taxonomy is the
#: contract.
TYPED_ERRORS: tuple[type[BaseException], ...] = (
    DeadlineExceededError,
    QueueFullError,
    ShardUnavailableError,
    ReadOnlyStoreError,
    TransientIOError,
    ClosedStoreError,
)

#: The store under test: 16-bit keys (the lower half is the stable region,
#: the upper half the clients' write slices), 256-deep shard queues, and a
#: background-write fault armed every third injector tick.
_KEY_BITS = 16
_MAX_QUEUE_DEPTH = 256
_WRITE_FAULT_EVERY = 3

#: The workload: three clients of 60 ops each over two shards, 150
#: stable-region keys preloaded.  The 180 ops can finish in ~10 ms on an
#: idle 2-core box: the injector's 2 ms tick must be well inside that for
#: it to fire before the clients end.
_SEED = 11
_CLIENTS = 3
_OPS_PER_CLIENT = 60
_NUM_SHARDS = 2
_PRELOAD = 150
_FAULT_PERIOD_S = 0.002

#: Extra slack on top of the deadline before a pending future counts as
#: hung.  Also the whole wait bound when there is no deadline.
_GRACE_S = 30.0


@dataclass
class ChaosOptions:
    """One chaos run: the serving defences under test and the fault switch."""

    queue_policy: str = "shed"
    default_deadline_s: float | None = 0.5  # every read's deadline_s
    breaker_enabled: bool = True
    #: Off, the injector never starts: a benign run.
    inject_faults: bool = True


@dataclass
class ChaosReport:
    """What happened: totals, failures by type, violations, faults."""

    ops: int = 0
    ok_ops: int = 0
    typed_failures: Counter = field(default_factory=Counter)
    violations: list[str] = field(default_factory=list)
    injected: Counter = field(default_factory=Counter)

    @property
    def availability(self) -> float:
        """Fraction of requests answered correctly (1.0 = no failures)."""
        return self.ok_ops / self.ops if self.ops else 1.0


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


def _stable_value(key: int) -> bytes:
    return b"stable:%d" % key


def _describe(op: tuple) -> str:
    return f"{op[0]}({', '.join(map(str, op[1:]))})"


class _Client:
    """One traffic thread: seeded op mix + its own verification model.

    The model is one dict: the stable region plus this client's own
    acknowledged puts — nobody else writes either, so every read this
    client issues has exactly one right answer.
    """

    def __init__(
        self,
        index: int,
        harness: "_Harness",
        write_low: int,
        write_high: int,
    ) -> None:
        self.index = index
        self.harness = harness
        self.rng = random.Random(_SEED * 1009 + index)
        self.write_low = write_low      # inclusive, this client's alone
        self.write_high = write_high    # exclusive
        self.model: dict[int, bytes | None] = {
            key: _stable_value(key) for key in harness.stable_sorted
        }
        self.write_seq = 0
        self.report = ChaosReport()

    # -- one op ----------------------------------------------------------
    def run_op(self) -> None:
        roll = self.rng.random()
        if roll < 0.45:
            self._read(("get", self._pick_read_key()))
        elif roll < 0.65:
            count = self.rng.randint(2, 8)
            keys = [self._pick_read_key() for _ in range(count)]
            self._read(("multi_get", keys))
        elif roll < 0.80:
            # Ranges stay inside the stable region so the answer is fixed.
            low = self.rng.randrange(0, self.harness.stable_top)
            high = min(
                low + self.rng.randint(1, 64), self.harness.stable_top - 1
            )
            self._read(("range", low, high))
        else:
            self._op_put()

    def _pick_read_key(self) -> int:
        # 70% stable region (always verifiable), 30% own write slice.
        stable = self.harness.stable_sorted
        if self.rng.random() < 0.7 and stable:
            return self.rng.choice(stable)
        return self.rng.randrange(self.write_low, self.write_high)

    def _record(self, ok: bool) -> None:
        self.report.ops += 1
        self.report.ok_ops += 1 if ok else 0

    def _fail(self, exc: BaseException, what: str) -> None:
        if isinstance(exc, concurrent.futures.TimeoutError):
            self.report.violations.append(
                f"client {self.index}: HANG — {what} still pending past "
                f"its deadline + grace"
            )
        elif isinstance(exc, TYPED_ERRORS):
            self.report.typed_failures[type(exc).__name__] += 1
        else:
            self.report.violations.append(
                f"client {self.index}: UNTYPED {type(exc).__name__} "
                f"from {what}: {exc}"
            )
        self._record(ok=False)

    def _read(self, op: tuple) -> None:
        """Submit one read op, collect it with a bounded wait (a timeout is
        the hang violation), and check it against the model."""
        server, options = self.harness.server, self.harness.options
        submit = {
            "get": server.get_async,
            "multi_get": server.multi_get_async,
            "range": server.range_query_async,
        }[op[0]]
        deadline_s = options.default_deadline_s
        bound = _GRACE_S + (deadline_s or 0.0)
        try:
            got = submit(*op[1:], deadline_s=deadline_s).result(timeout=bound)
        except BaseException as exc:  # noqa: BLE001 - classified above
            self._fail(exc, _describe(op))
            return
        want = expected(self.model, op)
        ok = got == want
        if not ok:
            self.report.violations.append(
                f"client {self.index}: WRONG ANSWER {_describe(op)} -> "
                f"{got!r}, expected {want!r}"
            )
        self._record(ok)

    def _op_put(self) -> None:
        key = self.rng.randrange(self.write_low, self.write_high)
        self.write_seq += 1
        op = ("put", key, b"c%d:%d" % (self.index, self.write_seq))
        try:
            _apply(self.harness.server, op)
        except BaseException as exc:  # noqa: BLE001 - classified above
            self._fail(exc, f"put({key})")
            return
        self.model.update(_effects(op))  # acked -> readable from now on
        self._record(ok=True)

    def run(self) -> None:
        self.harness.barrier.wait()
        for _ in range(_OPS_PER_CLIENT):
            try:
                self.run_op()
            except BaseException as exc:  # noqa: BLE001 - harness bug guard
                self.report.violations.append(
                    f"client {self.index}: HARNESS ERROR "
                    f"{type(exc).__name__}: {exc}"
                )
                self.report.ops += 1


class _Harness:
    """Shared run state: server, envs, stable model, fault injector."""

    def __init__(self, path: str, options: ChaosOptions) -> None:
        self.options = options
        self.envs: list[FaultInjectionEnv] = []
        captured = self.envs

        def env_factory(root, device, stats):
            env = FaultInjectionEnv(
                root, device, stats, seed=_SEED + len(captured)
            )
            captured.append(env)
            return env

        db_options = DBOptions(
            key_bits=_KEY_BITS,
            memtable_size_bytes=4 << 10,
            sst_size_bytes=8 << 10,
            block_size_bytes=512,
            max_bytes_for_level_base=32 << 10,
            env_factory=env_factory,
        )
        serving = ServingOptions(
            num_shards=_NUM_SHARDS,
            queue_policy=options.queue_policy,
            breaker_enabled=options.breaker_enabled,
            max_queue_depth=_MAX_QUEUE_DEPTH,
            breaker_backoff_initial_s=0.02,
            breaker_backoff_max_s=0.2,
        )
        self.server = ShardedServer(path, db_options, serving)
        self.stable_top = (1 << _KEY_BITS) // 2
        rng = random.Random(_SEED)
        stable: set[int] = set()
        while len(stable) < _PRELOAD:
            stable.add(rng.randrange(0, self.stable_top))
        self.stable_sorted = sorted(stable)
        self.barrier = threading.Barrier(_CLIENTS)
        self._stop_injector = threading.Event()

    def preload(self) -> None:
        for key in self.stable_sorted:
            self.server.put(key, _stable_value(key))
        self.server.flush()

    def client_slices(self) -> list[tuple[int, int]]:
        span = ((1 << _KEY_BITS) - self.stable_top) // _CLIENTS
        return [
            (self.stable_top + i * span, self.stable_top + (i + 1) * span)
            for i in range(_CLIENTS)
        ]

    # -- fault injection -------------------------------------------------
    def _inject_loop(self, injected: Counter) -> None:
        rng = random.Random(_SEED ^ 0xFA)
        tick = 0
        while not self._stop_injector.wait(_FAULT_PERIOD_S):
            tick += 1
            env = rng.choice(self.envs)
            # Transient read faults: absorbed by the storage layer's
            # bounded retry most of the time, surfaced (typed) otherwise.
            env.fail_next_reads(rng.randint(1, 2))
            injected["transient_reads"] += 1
            if tick % _WRITE_FAULT_EVERY == 0:
                # The next background write on this shard fails ->
                # degraded read-only flip -> breaker territory.
                env.fail_next_writes(1)
                injected["write_faults"] += 1

    def start_injector(self, injected: Counter) -> threading.Thread | None:
        if not self.options.inject_faults:
            return None
        thread = threading.Thread(
            target=self._inject_loop,
            args=(injected,),
            name="chaos-injector",
            daemon=True,
        )
        thread.start()
        return thread

    def stop_injector(self, thread: threading.Thread | None) -> None:
        self._stop_injector.set()
        if thread is not None:
            thread.join(timeout=5.0)

    def final_integrity_check(self, report: ChaosReport) -> None:
        """Read the stable region straight off the shard DBs.

        Bypasses the serving layer, so it checks the data, not the serving
        path; retries transient read faults left armed by the injector.
        """
        router = self.server.router
        shards = self.server.shards
        for key in self.stable_sorted:
            db: DB = shards[router.shard_of(key)]
            value = None
            for _ in range(5):
                try:
                    value = db.get(key)
                    break
                except TransientIOError:
                    continue
            if value != _stable_value(key):
                report.violations.append(
                    f"INTEGRITY: stable key {key} -> {value!r} on direct "
                    f"shard read, expected {_stable_value(key)!r}"
                )


def run_chaos(path: str, options: ChaosOptions) -> ChaosReport:
    """Run one chaos configuration end to end; returns the merged report."""
    harness = _Harness(path, options)
    report = ChaosReport()
    try:
        harness.preload()
        clients = [
            _Client(index, harness, low, high)
            for index, (low, high) in enumerate(harness.client_slices())
        ]
        injector = harness.start_injector(report.injected)
        threads = [
            threading.Thread(
                target=client.run, name=f"chaos-client-{client.index}"
            )
            for client in clients
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        harness.stop_injector(injector)
        for client in clients:
            report.ops += client.report.ops
            report.ok_ops += client.report.ok_ops
            report.typed_failures.update(client.report.typed_failures)
            report.violations.extend(client.report.violations)
        harness.final_integrity_check(report)
    finally:
        leaked = harness.server.close()
        if leaked:
            report.violations.append(
                f"CLOSE: batches stuck on shards {leaked}"
            )
    return report
