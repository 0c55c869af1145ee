"""Seeded serving schedules on a virtual clock: one thread plays every client.

``ShardedServer`` starts no thread, so one thread can drive any
interleaving and a seed chooses it: each shard DB's ``multi_get`` /
``range_query`` is wrapped so that, while a combiner runs a batch, the
seed interleaves other clients' submits (which queue behind it, or
combine another idle shard), puts, advances of the virtual clock
(``repro.lsm.serving.time``) and ``FaultInjectionEnv`` faults.  Each
schedule then checks the contract (docs/internals.md, "Failure
semantics"):

* every future is settled: with the dict model's answer as of the run of
  each piece's batch, or with a typed error one of its pieces met;
* a piece whose deadline passed before its dequeue gets
  ``DeadlineExceededError`` and never runs, and every other piece runs;
* the breaker moves only closed → open → half_open → closed / open, and
  once faults stop, the first write after the back-off heals it;
* a read one shard refuses queues and counts nothing on the others.

A failure names its seed; ``_Schedule(seed, config, path, clock).run()``
replays it exactly.
"""

from __future__ import annotations

import random
from collections import Counter, deque

import pytest

from repro.errors import (
    DeadlineExceededError,
    QueueFullError,
    ReadOnlyStoreError,
    ShardUnavailableError,
    TransientIOError,
)
from repro.lsm import serving
from repro.lsm.faults import FaultInjectionEnv
from repro.lsm.options import DBOptions
from repro.lsm.serving import ServingOptions, ServingStats, ShardedServer
from tests.lsm.chaos_harness import expected

DOMAIN = 1 << 16

#: Every span of virtual time is a whole number of ticks, a power of two,
#: so deadline and back-off comparisons are exact at any clock reading.
TICK = 1 / 256
BACKOFF_MAX_S = 8 * TICK
DEADLINES_S = (None, None, 2 * TICK, 6 * TICK)
ADVANCES_S = (TICK, 2 * TICK, 4 * TICK)

#: Top-level steps per schedule; how many combiners deep the seed still
#: interleaves steps inside a running batch.
STEPS = 12
MAX_NESTING = 2
SEEDS_PER_CONFIG = 60

#: Shedding configs keep queues shallow so interleaved submits fill them.
#: Blocking configs keep the default depth, never reached here: a blocked
#: submit would wait on a real condition no other thread signals.
CONFIGS = {
    "shed-breaker": dict(queue_policy="shed", max_queue_depth=3),
    "shed": dict(queue_policy="shed", max_queue_depth=3, breaker_enabled=False),
    "block-breaker": dict(),
    "block": dict(breaker_enabled=False),
}

_BREAKER_EDGES = {
    ("closed", "open"), ("open", "half_open"),
    ("half_open", "closed"), ("half_open", "open"),
}


class _LoggedShard(serving._Shard):
    """A shard that logs every write of its breaker state."""

    @property
    def _breaker_state(self) -> str:
        return self.breaker_log[-1]

    @_breaker_state.setter
    def _breaker_state(self, state: str) -> None:
        self.__dict__.setdefault("breaker_log", []).append(state)


def _server(path, envs: list, seed: int, **serving_options) -> ShardedServer:
    """Two small shards on seeded fault envs (collected in ``envs``), with
    no block cache, so every data-block read reaches an env's faults."""

    def env_factory(root, device, stats):
        envs.append(FaultInjectionEnv(root, device, stats, seed=seed + len(envs)))
        return envs[-1]

    db_options = DBOptions(
        key_bits=16, memtable_size_bytes=2 << 10, sst_size_bytes=4 << 10,
        block_size_bytes=256, block_cache_bytes=0,
        max_bytes_for_level_base=16 << 10, env_factory=env_factory,
    )
    options = ServingOptions(
        num_shards=2, breaker_backoff_initial_s=2 * TICK,
        breaker_backoff_max_s=BACKOFF_MAX_S, **serving_options,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(serving, "_Shard", _LoggedShard)
        return ShardedServer(str(path), db_options, options)


class _Schedule:
    """One seeded schedule against a fresh two-shard server."""

    def __init__(self, seed: int, config: str, path, clock) -> None:
        self.rng, self.clock, self.envs = random.Random(seed), clock, []
        self.server = _server(path, self.envs, seed, **CONFIGS[config])
        self.shards = self.server._shards
        self.keys = sorted(self.rng.sample(range(DOMAIN), 24))
        self.model: dict[int, bytes] = {}
        self.depth = self.writes = 0
        self.reads: list[tuple] = []  # (future, op, piece count)
        self.dequeued: dict[int, tuple] = {}  # id -> (piece, clock)
        self.ran: dict[int, object] = {}  # id -> model read, or its error
        self.batches: dict[int, deque] = {}  # shard -> pieces yet to read
        self.shared_batches = 0  # dequeued batches holding >= 2 pieces
        self.outcomes: Counter = Counter()  # futures by error type
        self.violations: list[str] = []
        self.trace: list[str] = []
        for shard in self.shards:
            self._instrument(shard)

    def _instrument(self, shard) -> None:
        db, next_batch = shard.db, shard._next_batch
        multi_get, range_query = db.multi_get, db.range_query

        def dequeue():
            now, queued = self.clock.now, list(shard._queue)
            batch = next_batch()
            left = set(map(id, shard._queue))
            for piece in queued:
                if id(piece) not in left:
                    self.dequeued[id(piece)] = (piece, now)
            if batch is not None:
                self.batches[shard.index] = deque(batch)
                self.shared_batches += len(batch) >= 2
            return batch

        def points(keys):
            piece = self.batches[shard.index].popleft()
            assert piece.keys == keys  # else never ran
            return self._read_db(piece, multi_get, keys)

        def scan(low, high):
            piece = self.batches[shard.index].popleft()
            assert (piece.low, piece.high) == (low, high)  # else never ran
            return self._read_db(piece, range_query, low, high)

        shard._next_batch, db.multi_get, db.range_query = dequeue, points, scan

    def _read_db(self, piece, read, *args):
        """One piece's DB read: the seed's interleaved steps, then the
        read; the piece notes the model it must answer from, or the error
        it met."""
        self._interleave()
        outcome = dict(self.model)
        try:
            return read(*args)
        except Exception as exc:
            if not isinstance(exc, TransientIOError):
                self.violations.append(f"untyped {exc!r} from a DB read")
            outcome = exc
            raise
        finally:
            self.ran[id(piece)] = outcome

    def _interleave(self) -> None:
        if self.depth < MAX_NESTING:
            self.depth += 1
            for _ in range(self.rng.randrange(4)):
                self._step()
            self.depth -= 1

    def _step(self) -> None:
        roll, shard = self.rng.random(), self.rng.randrange(2)
        if roll < 0.4:
            self._submit_read()
        elif roll < 0.6:
            self._put(self.rng.choice(self.keys))
        elif roll < 0.75:
            self.clock.advance(self.rng.choice(ADVANCES_S))
        elif roll < 0.85:
            self.envs[shard].fail_next_reads(self.rng.randint(2, 8))
        elif roll < 0.92:
            self.envs[shard].fail_next_writes(1)
        else:
            try:
                self.server.shards[shard].flush()
            except ReadOnlyStoreError:
                pass
        self.trace.append(f"{roll:.3f} {shard}")

    def _submit_read(self) -> None:
        rng, server, router = self.rng, self.server, self.server.router
        roll = rng.random()
        if roll < 0.4:
            op, submit, count = ("get", rng.choice(self.keys)), server.get_async, 1
        elif roll < 0.7:
            op = ("multi_get", rng.sample(self.keys, rng.randint(1, 4)))
            submit = server.multi_get_async
            count = len({router.shard_of(key) for key in op[1]})
        else:
            low = rng.randrange(DOMAIN)
            op = ("range", low, min(DOMAIN - 1, low + rng.randrange(DOMAIN // 2)))
            submit = server.range_query_async
            count = len(router.split_range(op[1], op[2]))
        before = self._queued()
        try:
            future = submit(*op[1:], deadline_s=rng.choice(DEADLINES_S))
        except QueueFullError:
            if self._queued() != before:
                self.violations.append(f"refused {op} queued a piece")
            return
        self.reads.append((future, op, count))

    def _queued(self) -> list[tuple]:
        """Each shard's queue depth and read counters."""
        return [
            (shard.queue_depth(), shard.stats.point_requests,
             shard.stats.multi_requests, shard.stats.range_requests)
            for shard in self.shards
        ]

    def _put(self, key: int) -> bool:
        self.writes += 1
        value = b"v%d" % self.writes
        try:
            self.server.put(key, value)
        except (ShardUnavailableError, ReadOnlyStoreError) as exc:
            breaker = self.server.serving.breaker_enabled
            if isinstance(exc, ShardUnavailableError) != breaker:
                self.violations.append(f"put {key} raised {exc!r}")
            return False
        self.model[key] = value
        return True

    def run(self) -> "_Schedule":
        try:
            for _ in range(STEPS):
                self._step()
            self.depth = MAX_NESTING  # faults stop: no more interleaving
            self._heal()
            count = len({self.server.router.shard_of(k) for k in self.keys})
            sweep = self.server.multi_get_async(self.keys)
            self.reads.append((sweep, ("multi_get", self.keys), count))
            self._check_reads()
            self._check_breakers()
        finally:
            if self.server.close():
                self.violations.append("close() reported a stuck batch")
        return self

    def _heal(self) -> None:
        """Disarm every fault; with the breaker on, a write to each shard
        after the back-off must heal it (the first may only trip it)."""
        for env in self.envs:
            env._fail_next_reads = env._fail_next_writes = 0
        if not self.server.serving.breaker_enabled:
            return
        for shard in self.shards:
            for _ in range(2):
                self.clock.advance(BACKOFF_MAX_S)
                if self._put(self.server.router.span(shard.index)[0]):
                    break
            else:
                self.violations.append(f"shard {shard.index} never healed")

    def _check_reads(self) -> None:
        pieces_of: dict[int, list] = {}
        for piece, _ in self.dequeued.values():
            pieces_of.setdefault(id(piece.sink.future), []).append(piece)
        for future, op, count in self.reads:
            pieces = sorted(pieces_of.get(id(future), []), key=lambda r: r.position)
            if not future.done() or len(pieces) != count:
                self.violations.append(f"{op}: stranded")
                continue
            errors = []
            for piece in pieces:
                late = piece.deadline is not None and (
                    self.dequeued[id(piece)][1] > piece.deadline
                )
                ran = self.ran.get(id(piece))
                if late != (ran is None):
                    why = "ran though late at dequeue" if late else "never ran"
                    self.violations.append(f"{op}: a piece {why}")
                if late or isinstance(ran, Exception):
                    errors.append(DeadlineExceededError if late else type(ran))
            error = future.exception()
            got = type(error) if error else future.result()
            self.outcomes[type(error)] += 1
            self.trace.append(f"{op} -> {got!r}")
            if errors or error:
                if type(error) not in errors:
                    self.violations.append(f"{op}: {error!r}, pieces met {errors}")
            elif got != self._answer(op, pieces):
                want = self._answer(op, pieces)
                self.violations.append(f"{op}: {got!r}, model {want!r}")

    def _answer(self, op: tuple, pieces: list):
        """The model's answer to ``op``, each piece read as of its batch."""
        if op[0] == "range":
            return [
                pair
                for r in pieces
                for pair in expected(self.ran[id(r)], ("range", r.low, r.high))
            ]
        values: dict = {}
        for r in pieces:
            values.update(expected(self.ran[id(r)], ("multi_get", r.keys)))
        return values[op[1]] if op[0] == "get" else {k: values[k] for k in op[1]}

    def _check_breakers(self) -> None:
        for shard in self.shards:
            log = shard.breaker_log
            self.trace.append(f"breaker {shard.index}: {log}")
            bad = set(zip(log, log[1:])) - _BREAKER_EDGES
            if bad or log[0] != "closed" or log[-1] != "closed":
                self.violations.append(f"shard {shard.index} breaker: {log}")


@pytest.mark.parametrize("config", CONFIGS)
def test_seeded_schedules_keep_the_serving_contract(
    tmp_path, virtual_clock, config
) -> None:
    totals, outcomes, shared_batches = ServingStats(), Counter(), 0
    for seed in range(SEEDS_PER_CONFIG):
        path = tmp_path / str(seed)
        schedule = _Schedule(seed, config, path, virtual_clock).run()
        assert not schedule.violations, f"{config} seed {seed}"
        totals = ServingStats.aggregate([totals, schedule.server.stats()])
        outcomes.update(schedule.outcomes)
        shared_batches += schedule.shared_batches
    # The seeds reach every path the contract names.
    assert shared_batches and totals.deadline_misses
    assert outcomes[DeadlineExceededError] and outcomes[TransientIOError]
    assert bool(totals.sheds) == (CONFIGS[config].get("queue_policy") == "shed")
    assert totals.queue_waits == 0
    if schedule.server.serving.breaker_enabled:
        assert totals.breaker_trips and totals.breaker_recoveries


def test_a_seed_replays_identically(tmp_path, virtual_clock) -> None:
    first, again = (
        _Schedule(7, "shed-breaker", tmp_path / name, virtual_clock).run()
        for name in ("first", "again")
    )
    assert first.trace == again.trace and len(first.reads) > 1


def _availability(path, clock, breaker_enabled: bool) -> float:
    """Share of 64 seeded gets and puts that succeed while shard 0 loses
    one write at op 16 and the clock moves a tick per op."""
    rng, envs = random.Random(53), []
    succeeded = 0
    with _server(path, envs, 53, breaker_enabled=breaker_enabled) as server:
        for op in range(64):
            clock.advance(TICK)
            if op == 16:
                envs[0].fail_next_writes(1)
            key = rng.randrange(DOMAIN)
            try:
                if rng.random() < 0.5:
                    server.put(key, b"v%d" % op)
                else:
                    server.get_async(key).result()
            except (ShardUnavailableError, ReadOnlyStoreError):
                continue
            succeeded += 1
    return succeeded / 64


def test_breaker_keeps_availability_above_no_breaker(
    tmp_path, virtual_clock
) -> None:
    """The breaker heals a shard after its back-off; without it, a write
    fault leaves the shard read-only for good."""
    with_breaker = _availability(tmp_path / "on", virtual_clock, True)
    without = _availability(tmp_path / "off", virtual_clock, False)
    assert without < 1.0  # the fault landed
    assert with_breaker > without
