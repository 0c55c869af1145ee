"""Chaos harness: concurrent mixed traffic against fault-injected shards.

The fault-tolerance contract of :class:`~repro.lsm.serving.ShardedServer`
is behavioral, not structural: *under faults, every request either
returns the correct answer or raises a typed serving error within its
deadline* — no hangs, no wrong answers, no stranded futures.  This
module drives that contract end to end:

* every shard DB runs on a :class:`~repro.lsm.faults.FaultInjectionEnv`
  (captured through ``DBOptions.env_factory``);
* concurrent client threads issue a seeded mix of ``get`` /
  ``multi_get`` / ``range_query`` / ``put`` while an injector thread
  arms transient read faults, background write faults (degraded-mode
  flips), and drain-worker crashes;
* the key domain is split so answers are checkable under concurrency:
  the lower half is preloaded once and never written again (every read
  there has one correct answer), and the upper half is divided into
  per-client disjoint write slices (nobody else touches a client's
  slice, so each client checks every read against one dict — the stable
  region plus its own acked writes — through the op model it shares with
  the torture harness, :func:`repro.lsm.torture.expected`);
* every async read is collected with a bounded ``Future.result`` wait;
  a timeout is a **hang violation**, a non-allowlisted exception is a
  **typed-error violation**, and a mismatched answer is a **wrong-answer
  violation**.  A clean run reports zero violations.

After the traffic stops, a final integrity sweep reads the stable
region straight from the shard DBs (bypassing the serving layer, so it
works even when an undefended configuration has permanently lost its
drain workers) to prove the data itself survived the chaos.

:func:`run_chaos` returns a :class:`ChaosReport`;
``benchmarks/bench_chaos.py`` runs it across defense configurations and
turns the reports into ``BENCH_chaos.json``.
"""

from __future__ import annotations

import concurrent.futures
import random
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.errors import (
    ClosedStoreError,
    DeadlineExceededError,
    QueueFullError,
    ReadOnlyStoreError,
    ShardUnavailableError,
    TransientIOError,
    WorkerCrashedError,
    WriteStallTimeoutError,
)
from repro.lsm.db import DB
from repro.lsm.faults import FaultInjectionEnv
from repro.lsm.options import DBOptions
from repro.lsm.serving import ServingOptions, ShardedServer
from repro.lsm.torture import _apply, _effects, expected

__all__ = ["ChaosOptions", "ChaosReport", "run_chaos"]

#: Exceptions a request may legitimately surface under faults.  Anything
#: else escaping the serving layer is a violation — the taxonomy is the
#: contract.
TYPED_ERRORS: tuple[type[BaseException], ...] = (
    DeadlineExceededError,
    QueueFullError,
    ShardUnavailableError,
    WorkerCrashedError,
    ReadOnlyStoreError,
    WriteStallTimeoutError,
    TransientIOError,
    ClosedStoreError,
)


@dataclass
class ChaosOptions:
    """One chaos run: workload shape, serving config, fault schedule."""

    seed: int = 0
    clients: int = 4
    ops_per_client: int = 200
    num_shards: int = 4
    key_bits: int = 16
    preload: int = 500          # stable-region keys loaded before traffic
    # Serving configuration under test.
    queue_policy: str = "shed"
    default_deadline_s: float | None = 0.5
    breaker_enabled: bool = True
    max_worker_restarts: int = 3
    max_queue_depth: int = 256
    # Fault schedule (all faults disabled when ``inject_faults`` is off).
    inject_faults: bool = True
    fault_period_s: float = 0.02   # injector tick
    write_fault_every: int = 3     # ticks between armed background-write faults
    worker_crash_every: int = 6    # ticks between injected worker crashes
    #: Extra slack on top of the deadline before a pending future counts
    #: as hung.  Also the whole wait bound when there is no deadline.
    grace_s: float = 30.0


@dataclass
class ChaosReport:
    """What happened: totals, failures by type, violations, latency."""

    ops: int = 0
    ok_ops: int = 0
    typed_failures: Counter = field(default_factory=Counter)
    violations: list[str] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)
    injected: Counter = field(default_factory=Counter)
    counters: dict[str, int] = field(default_factory=dict)
    duration_s: float = 0.0

    @property
    def availability(self) -> float:
        """Fraction of requests answered correctly (1.0 = no failures)."""
        return self.ok_ops / self.ops if self.ops else 1.0

    def latency_percentile(self, q: float) -> float:
        """q-th latency percentile in seconds (0 when nothing completed)."""
        if not self.latencies_s:
            return 0.0
        ordered = sorted(self.latencies_s)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]


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
        self.rng = random.Random(harness.options.seed * 1009 + index)
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

    def _record(self, start: float, ok: bool) -> None:
        self.report.ops += 1
        self.report.ok_ops += 1 if ok else 0
        self.report.latencies_s.append(time.monotonic() - start)

    def _fail(self, start: float, exc: BaseException, what: str) -> None:
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
        self._record(start, ok=False)

    def _read(self, op: tuple) -> None:
        """Submit one read op, collect it with a bounded wait (a timeout is
        the hang violation), and check it against the model."""
        server, options = self.harness.server, self.harness.options
        submit = {
            "get": server.get_async,
            "multi_get": server.multi_get_async,
            "range": server.range_query_async,
        }[op[0]]
        bound = options.grace_s + (options.default_deadline_s or 0.0)
        start = time.monotonic()
        try:
            got = submit(*op[1:]).result(timeout=bound)
        except BaseException as exc:  # noqa: BLE001 - classified above
            self._fail(start, exc, _describe(op))
            return
        want = expected(self.model, op)
        ok = got == want
        if not ok:
            self.report.violations.append(
                f"client {self.index}: WRONG ANSWER {_describe(op)} -> "
                f"{got!r}, expected {want!r}"
            )
        self._record(start, ok)

    def _op_put(self) -> None:
        key = self.rng.randrange(self.write_low, self.write_high)
        self.write_seq += 1
        op = ("put", key, b"c%d:%d" % (self.index, self.write_seq))
        start = time.monotonic()
        try:
            _apply(self.harness.server, op)
        except BaseException as exc:  # noqa: BLE001 - classified above
            self._fail(start, exc, f"put({key})")
            return
        self.model.update(_effects(op))  # acked -> readable from now on
        self._record(start, ok=True)

    def run(self) -> None:
        self.harness.barrier.wait()
        for _ in range(self.harness.options.ops_per_client):
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
                root, device, stats, seed=options.seed + len(captured)
            )
            captured.append(env)
            return env

        db_options = DBOptions(
            key_bits=options.key_bits,
            memtable_size_bytes=4 << 10,
            sst_size_bytes=8 << 10,
            block_size_bytes=512,
            max_bytes_for_level_base=32 << 10,
            env_factory=env_factory,
        )
        serving = ServingOptions(
            num_shards=options.num_shards,
            queue_policy=options.queue_policy,
            default_deadline_s=options.default_deadline_s,
            breaker_enabled=options.breaker_enabled,
            max_worker_restarts=options.max_worker_restarts,
            max_queue_depth=options.max_queue_depth,
            breaker_backoff_initial_s=0.02,
            breaker_backoff_max_s=0.2,
        )
        self.server = ShardedServer(path, db_options, serving)
        domain = 1 << options.key_bits
        self.stable_top = domain // 2
        rng = random.Random(options.seed)
        stable: set[int] = set()
        while len(stable) < options.preload:
            stable.add(rng.randrange(0, self.stable_top))
        self.stable_sorted = sorted(stable)
        self.barrier = threading.Barrier(options.clients)
        self._stop_injector = threading.Event()

    def preload(self) -> None:
        for key in self.stable_sorted:
            self.server.put(key, _stable_value(key))
        self.server.flush()

    def client_slices(self) -> list[tuple[int, int]]:
        domain = 1 << self.options.key_bits
        span = (domain - self.stable_top) // self.options.clients
        return [
            (self.stable_top + i * span, self.stable_top + (i + 1) * span)
            for i in range(self.options.clients)
        ]

    # -- fault injection -------------------------------------------------
    def _inject_loop(self, injected: Counter) -> None:
        rng = random.Random(self.options.seed ^ 0xFA)
        tick = 0
        while not self._stop_injector.wait(self.options.fault_period_s):
            tick += 1
            env = rng.choice(self.envs)
            # Transient read faults: absorbed by the storage layer's
            # bounded retry most of the time, surfaced (typed) otherwise.
            env.fail_next_reads(rng.randint(1, 2))
            injected["transient_reads"] += 1
            if tick % self.options.write_fault_every == 0:
                # The next background write on this shard fails ->
                # degraded read-only flip -> breaker territory.
                env.fail_next_writes(1)
                injected["write_faults"] += 1
            if tick % self.options.worker_crash_every == 0:
                shard = rng.choice(self.server._shards)
                shard.inject_worker_fault(
                    RuntimeError(f"chaos: injected worker crash @tick {tick}")
                )
                injected["worker_crashes"] += 1

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

        Bypasses the serving layer so it works even when an undefended
        configuration lost its drain workers for good; retries transient
        read faults left armed by the injector.
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
        start = time.monotonic()
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
        report.duration_s = time.monotonic() - start
        harness.stop_injector(injector)
        for client in clients:
            report.ops += client.report.ops
            report.ok_ops += client.report.ok_ops
            report.typed_failures.update(client.report.typed_failures)
            report.violations.extend(client.report.violations)
            report.latencies_s.extend(client.report.latencies_s)
        harness.final_integrity_check(report)
        stats = harness.server.stats()
        report.counters = {
            "sheds": stats.sheds,
            "deadline_misses": stats.deadline_misses,
            "breaker_trips": stats.breaker_trips,
            "breaker_recoveries": stats.breaker_recoveries,
            "worker_crashes": stats.worker_crashes,
            "worker_restarts": stats.worker_restarts,
            "worker_leaks": stats.worker_leaks,
            "write_rejections": stats.write_rejections,
            "queue_waits": stats.queue_waits,
        }
    finally:
        leaked = harness.server.close()
        if leaked:
            report.violations.append(
                f"CLOSE: workers leaked on shards {leaked}"
            )
    return report
