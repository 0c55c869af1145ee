"""Sharded serving front-end over N key-range `DB` shards.

The paper positions Rosetta as the filter inside a *serving* key-value
store; this module is the serving layer.  One logical store is
partitioned by key range (:class:`~repro.lsm.shard.ShardRouter`) across
``N`` in-process :class:`~repro.lsm.db.DB` shards, fronted by an async
API: ``get`` / ``multi_get`` / ``range_query`` calls return futures.  It
starts no thread (flat combining):

* every shard owns a request queue; the submitter that finds the shard
  idle becomes its *combiner* and drains the queue on its own thread,
  batch by batch, until it finds it empty — other submitters just queue
  and wait on their futures;
* a batch is everything that queued while the previous one ran, and
  each of its pieces is its own DB read: a point piece one
  :meth:`DB.multi_get` of its keys, a range piece one
  :meth:`DB.range_query`;
* range queries split at shard boundaries
  (:meth:`ShardRouter.split_range`) and their per-shard answers
  concatenate in shard order (shards are contiguous).

Every read takes its DB's current superversion with one unlocked
attribute read, so the only serialization points are the per-shard lock
(a condition variable held for queue and breaker bookkeeping only) and
each shard's own write lock.

The serving layer fails *fast and typed*, never silently and never by
hanging (docs/internals.md, "Failure semantics"):

* **Deadlines** are per call (``deadline_s=``), enforced at dequeue and
  while a submitter is blocked on a full queue
  (:class:`~repro.errors.DeadlineExceededError`).
* **Load shedding.** ``queue_policy = "shed"`` rejects a submit over
  ``max_queue_depth`` with :class:`~repro.errors.QueueFullError`.  A
  read is queued on all its shards or on none.
* **Circuit breaker.** A write that finds its shard DB degraded trips
  the shard's breaker ``open``: writes fail fast with
  :class:`~repro.errors.ShardUnavailableError` while reads pass.  The
  first write after a capped exponential back-off probes
  :meth:`DB.resume` and goes ahead if the store healed.
* **A failing read fails only itself**: its piece gets the exception
  and the combiner goes on, so nothing needs restarting.
  :meth:`ShardedServer.close` waits for running batches and fails what
  one stuck past ``_WORKER_JOIN_TIMEOUT_S`` holds with
  :class:`~repro.errors.ClosedStoreError`.

Every path is counted in :class:`ServingStats`, and
:meth:`ShardedServer.health` reports each shard's
:class:`~repro.lsm.db.HealthReport`, queue depth and breaker state.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable

from repro.errors import (
    ClosedStoreError,
    DeadlineExceededError,
    InvalidOptionsError,
    QueueFullError,
    ReadOnlyStoreError,
    ShardUnavailableError,
)
from repro.lsm.db import DB, HealthReport
from repro.lsm.options import DBOptions
from repro.lsm.shard import ShardRouter
from repro.lsm.stats import CounterSet, PerfStats

__all__ = [
    "ServingHealth",
    "ServingOptions",
    "ServingStats",
    "ShardedServer",
]

#: How long :meth:`ShardedServer.close` waits for each shard's running
#: batch before declaring it leaked and failing its futures.
_WORKER_JOIN_TIMEOUT_S = 30.0


@dataclass
class ServingOptions:
    """Tuning knobs for :class:`ShardedServer`."""

    #: Number of key-range shards (each one independent ``DB``).
    num_shards: int = 4

    #: Queue-depth ceiling per shard (see :attr:`queue_policy`).
    max_queue_depth: int = 4096

    #: What happens to a submit finding the queue at ``max_queue_depth``:
    #: ``"block"`` waits for the queue to drain (bounded by the
    #: request's deadline, if any); ``"shed"`` rejects immediately with
    #: :class:`~repro.errors.QueueFullError`.
    queue_policy: str = "block"

    #: Run the per-shard circuit breaker.  Off, writes go straight to the
    #: shard DB, and a degraded shard leaks
    #: :class:`~repro.errors.ReadOnlyStoreError` on every write.
    breaker_enabled: bool = True

    #: First retry delay after a breaker trips open; doubles per failed
    #: ``DB.resume()`` probe up to :attr:`breaker_backoff_max_s`.
    breaker_backoff_initial_s: float = 0.05

    #: Ceiling on the breaker's exponential probe backoff.
    breaker_backoff_max_s: float = 2.0

    def validate(self) -> None:
        """Raise :class:`InvalidOptionsError` on inconsistent settings."""
        if self.num_shards < 1:
            raise InvalidOptionsError("num_shards must be >= 1")
        if self.max_queue_depth < 1:
            raise InvalidOptionsError("max_queue_depth must be >= 1")
        if self.queue_policy not in ("block", "shed"):
            raise InvalidOptionsError(
                f"queue_policy must be 'block' or 'shed': {self.queue_policy!r}"
            )
        if self.breaker_backoff_initial_s <= 0:
            raise InvalidOptionsError("breaker_backoff_initial_s must be > 0")
        if self.breaker_backoff_max_s < self.breaker_backoff_initial_s:
            raise InvalidOptionsError(
                "breaker_backoff_max_s must be >= breaker_backoff_initial_s"
            )


@dataclass
class ServingStats(CounterSet):
    """Front-end counters — one instance per shard plus the aggregate.

    ``batches`` / ``batched_keys`` count the drained batches that read
    point keys and those keys; ``max_queue_depth`` is the deepest queue
    a combiner took.

    The fault-tolerance counters (``sheds``, ``deadline_misses``,
    ``breaker_trips`` / ``breaker_recoveries``, ``worker_leaks``,
    ``write_rejections``) make every fast-failure path visible: nothing
    is shed, expired, tripped or abandoned without a counter moving.
    """

    point_requests: int = 0      # get() calls routed to this shard
    multi_requests: int = 0      # multi_get() sub-requests for this shard
    range_requests: int = 0      # range pieces executed on this shard
    write_requests: int = 0      # put/delete routed to this shard
    batches: int = 0             # drained batches holding a point piece
    batched_keys: int = 0        # point keys those batches read
    # Never written: no two reads share a DB call.  Kept only while
    # benchmarks/ledger/run.py derives serving.coalesced_share from it.
    coalesced_requests: int = 0
    queue_waits: int = 0         # submits that blocked on max_queue_depth
    sheds: int = 0               # submits rejected with QueueFullError
    deadline_misses: int = 0     # requests failed with DeadlineExceededError
    breaker_trips: int = 0       # closed/half_open -> open transitions
    breaker_recoveries: int = 0  # half_open -> closed transitions
    worker_leaks: int = 0        # batches still running past the close wait
    write_rejections: int = 0    # writes fast-failed by an open breaker
    max_queue_depth: int = 0     # high-water: pieces a combiner took

    _MAX_FIELDS = ("max_queue_depth",)


@dataclass(frozen=True)
class ServingHealth:
    """Aggregate + per-shard health (``ShardedServer.health()``).

    ``mode`` is ``"degraded"`` as soon as any shard is degraded or any
    breaker is not ``closed``; ``queue_depths`` are the live per-shard
    request-queue lengths (the serving layer's own debt gauge, alongside
    each shard's ``pending_immutables``/``level0_runs``), and
    ``breaker_states`` the per-shard breakers.

    ``filters_degraded`` / ``filters_under_attack`` aggregate the shard
    reports' filter-fault gauges, so a fleet operator sees at a glance
    whether any shard is serving unreadable filters or absorbing an
    FP-replay attack; the per-shard reports name the affected runs,
    which identifies the targeted shard.
    """

    mode: str
    shards: tuple[HealthReport, ...]
    queue_depths: tuple[int, ...]
    filters_degraded: int = 0
    filters_under_attack: int = 0
    breaker_states: tuple[str, ...] = ()


class _ScatterSink:
    """Gathers the per-shard pieces of one read and settles its future.

    Every read — ``get``, ``multi_get`` or ``range_query`` — is a scatter
    of zero or more per-shard pieces into one sink: one lock, a
    countdown, and the read's future.  Each shard deposits its piece's
    answer at its position and the last one to arrive combines and
    resolves; a sink with no pieces resolves at construction.  The first
    failure wins and resolves the future exceptionally; later pieces are
    dropped.  The sink is the only code that settles a read's future, so
    it is the one place that tolerates a future already settled: the
    close path fails a wedged batch's pieces, and the batch — if it ever
    unwedges — must not crash on the leftovers.
    """

    __slots__ = ("future", "_lock", "_parts", "_remaining", "_combine")

    def __init__(
        self, pieces: int, combine: Callable[[list], object]
    ) -> None:
        self.future: Future = Future()
        self._lock = threading.Lock()
        self._parts: list = [None] * pieces
        self._remaining = pieces
        self._combine = combine
        if not pieces:
            self.future.set_result(combine(self._parts))

    def deliver(self, position: int, result: object) -> None:
        with self._lock:
            if self._remaining <= 0:
                return  # already failed
            self._parts[position] = result
            self._remaining -= 1
            if self._remaining:
                return
        try:
            self.future.set_result(self._combine(self._parts))
        except BaseException as exc:  # noqa: BLE001 - routed to caller
            try:
                self.future.set_exception(exc)
            except InvalidStateError:
                pass

    def fail(self, exc: BaseException) -> None:
        with self._lock:
            if self._remaining <= 0:
                return
            self._remaining = 0
        try:
            self.future.set_exception(exc)
        except InvalidStateError:
            pass


def _concat(parts: list) -> list:
    """Range pieces come back in shard (= key) order: concatenate them."""
    merged: list = []
    for part in parts:
        merged.extend(part)
    return merged


class _Request:
    """One piece of a read, queued on one shard.

    A piece is a point lookup of ``keys`` or, with ``keys`` None, the
    range ``[low, high]``; its answer goes to ``sink`` at ``position``.
    ``deadline`` is an absolute ``time.monotonic()`` instant or None;
    the combiner checks it at dequeue and the blocking submit path
    checks it while waiting on a full queue.
    """

    __slots__ = ("keys", "low", "high", "sink", "position", "deadline")

    def __init__(
        self,
        keys: list[int] | None,
        low: int,
        high: int,
        sink: _ScatterSink,
        position: int,
        deadline: float | None,
    ) -> None:
        self.keys = keys
        self.low = low
        self.high = high
        self.sink = sink
        self.position = position
        self.deadline = deadline


class _Shard:
    """One key-range shard: a ``DB`` and a request queue.

    One lock: ``_cond`` (a condition variable) guards the queue, the
    closed flag, the combiner flag, the in-flight batch, and the
    circuit-breaker state machine (state / reason / backoff / next-probe
    instant).  All read work, and the breaker's ``DB.resume()`` probe,
    run outside it.  The combiner flag is set by the submit that finds it
    clear and cleared only in the critical section that finds the queue
    empty, so every queued piece has a combiner that will reach it.
    """

    def __init__(
        self,
        index: int,
        db: DB,
        options: ServingOptions,
        stats: ServingStats,
    ) -> None:
        self.index = index
        self.db = db
        self.options = options
        self.stats = stats
        self._cond = threading.Condition()
        self._queue: deque[_Request] = deque()
        self._inflight: list[_Request] = []
        self._closed = False
        self._combining = False
        self._breaker_state = "closed"  # closed | open | half_open
        self._breaker_reason: str | None = None
        self._backoff_s = options.breaker_backoff_initial_s
        self._next_probe_at = 0.0

    # -- submit side (ShardedServer._scatter holds _cond around these) --
    def _full_locked(self) -> bool:
        """Whether a piece must wait for room; raise if the shard refuses it.

        A closed shard refuses with :class:`ClosedStoreError`; a full one
        under ``shed`` with :class:`QueueFullError`; a full one under
        ``block`` makes the submitter wait (:meth:`_wait_for_room`).
        """
        if self._closed:
            raise ClosedStoreError("serving layer is closed")
        opts = self.options
        if len(self._queue) < opts.max_queue_depth:
            return False
        if opts.queue_policy == "shed":
            self.stats.add(sheds=1)
            raise QueueFullError(
                f"shard {self.index} queue at max_queue_depth="
                f"{opts.max_queue_depth}; request shed"
            )
        return True

    def _push_locked(self, request: _Request) -> bool:
        """Queue an admitted piece; True when the caller is now the
        shard's combiner and must :meth:`drain` it."""
        self._queue.append(request)
        if self._combining:
            return False
        self._combining = True
        return True

    def _wait_for_room(self, deadline: float | None, first: bool) -> None:
        """Block until the queue is below ``max_queue_depth`` or the shard
        closes, bounded by ``deadline``; ``first`` counts a
        ``queue_waits`` (once per blocking submit)."""
        with self._cond:
            if first:
                self.stats.add(queue_waits=1)
            while (
                len(self._queue) >= self.options.max_queue_depth
                and not self._closed
            ):
                timeout = None
                if deadline is not None:
                    timeout = deadline - time.monotonic()
                    if timeout <= 0:
                        self.stats.add(deadline_misses=1)
                        raise DeadlineExceededError(
                            f"shard {self.index}: deadline expired "
                            f"while blocked on a full queue"
                        )
                self._cond.wait(timeout)

    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    def breaker_state(self) -> str:
        with self._cond:
            return self._breaker_state

    # -- write gate -----------------------------------------------------
    def guarded_write(self, write: Callable[[], None]) -> None:
        """Run a write unless the breaker fast-fails it.

        A write that finds the shard DB degraded trips the breaker
        ``open``; while it is not ``closed``, writes are rejected without
        touching the DB (:class:`ShardUnavailableError`, counted in
        ``write_rejections``), except the first one after the back-off,
        which probes (:meth:`_probe`) and goes ahead if the store healed.
        A write that hits :class:`~repro.errors.ReadOnlyStoreError` trips
        the breaker too and surfaces as :class:`ShardUnavailableError`
        (chained) so the caller-visible type is uniform from the first
        failure on.  With the breaker off, writes go straight to the DB.
        """
        if not self.options.breaker_enabled:
            write()
            return
        self._pass_breaker()
        try:
            write()
        except ReadOnlyStoreError as exc:
            self._trip(f"degraded shard DB: {exc}")
            raise ShardUnavailableError(
                f"shard {self.index} tripped open: {exc}"
            ) from exc

    # -- breaker state machine ------------------------------------------
    def _pass_breaker(self) -> None:
        """Return if a write may go ahead; raise ShardUnavailableError if not.

        A closed breaker costs one unlocked read of its state: a write
        that races a trip is still caught by the store's own
        :class:`~repro.errors.ReadOnlyStoreError`.
        """
        if self._breaker_state == "closed":
            error = self.db.background_error
            if error is None:
                return
            self._trip(f"degraded shard DB: {error}")
        else:
            with self._cond:
                probe = (
                    self._breaker_state == "open"
                    and time.monotonic() >= self._next_probe_at
                )
                if probe:
                    self._breaker_state = "half_open"
            if probe and self._probe():
                return
        with self._cond:
            state, reason = self._breaker_state, self._breaker_reason
        self.stats.add(write_rejections=1)
        raise ShardUnavailableError(
            f"shard {self.index} breaker {state}"
            + (f" ({reason})" if reason else "")
        )

    def _trip(self, reason: str) -> None:
        """closed/half_open -> open (idempotent while already open)."""
        with self._cond:
            if self._breaker_state == "open":
                self._breaker_reason = reason
                return
            self._breaker_state = "open"
            self._breaker_reason = reason
            self._backoff_s = self.options.breaker_backoff_initial_s
            self._next_probe_at = time.monotonic() + self._backoff_s
        self.stats.add(breaker_trips=1)

    def _probe(self) -> bool:
        """The half-open probe: ``DB.resume()``.  Healed, the breaker
        closes; otherwise (an interrupt included) it re-opens with a
        doubled back-off."""
        healed = False
        try:
            healed = self.db.resume()
        except Exception:  # noqa: BLE001 - a failed probe, like False
            pass
        finally:
            with self._cond:
                if self._breaker_state != "half_open":
                    healed = False  # a concurrent trip won; keep its verdict
                elif healed:
                    self._breaker_state = "closed"
                    self._breaker_reason = None
                    self._backoff_s = self.options.breaker_backoff_initial_s
                else:
                    self._breaker_state = "open"
                    self._backoff_s = min(
                        self._backoff_s * 2, self.options.breaker_backoff_max_s
                    )
                    self._next_probe_at = time.monotonic() + self._backoff_s
        if healed:
            self.stats.add(breaker_recoveries=1)
        return healed

    # -- combiner side --------------------------------------------------
    def drain(self) -> None:
        """Run queued batches on the calling thread until the queue is empty.

        Only the combiner calls this (the submitter whose piece set the
        flag).  An exception escaping a batch fails that batch's reads
        and the loop goes on, so a fault costs one batch and nothing is
        left stranded or needs restarting.  An interrupt or exit raised
        on the caller's thread stops combining: it fails the batch and
        everything queued, clears the flag and propagates.
        """
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            try:
                self._execute(batch)
            except Exception as exc:  # noqa: BLE001 - to that batch's callers
                for request in batch:
                    request.sink.fail(exc)
            except BaseException as exc:
                with self._cond:
                    batch.extend(self._queue)
                    self._queue.clear()
                    self._inflight = []
                    self._combining = False
                    self._cond.notify_all()
                for request in batch:
                    request.sink.fail(exc)
                raise

    def _next_batch(self) -> list[_Request] | None:
        """Take everything queued as one batch, or stop combining.

        Pieces whose deadline already passed are failed fast here instead
        of joining the batch (it may come back empty).  Returns None on
        an empty queue, clearing the combiner flag in the same critical
        section, so a piece queued after it finds the flag clear and
        combines.
        """
        batch: list[_Request] = []
        expired: list[_Request] = []
        with self._cond:
            depth = len(self._queue)
            if not depth:
                self._combining = False
                self._inflight = []
                if self._closed:
                    self._cond.notify_all()  # close() waits for this
                return None
            # Depth only grows between takes: this is its high-water mark.
            if depth > self.stats.max_queue_depth:
                self.stats.observe_max("max_queue_depth", depth)
            if depth >= self.options.max_queue_depth:
                self._cond.notify_all()  # submitters waiting for room
            now = time.monotonic()
            for request in self._queue:
                if request.deadline is not None and now > request.deadline:
                    expired.append(request)
                else:
                    batch.append(request)
            self._queue.clear()
            self._inflight = batch
        if expired:
            self.stats.add(deadline_misses=len(expired))
            for request in expired:
                request.sink.fail(
                    DeadlineExceededError(
                        f"shard {self.index}: deadline expired in queue"
                    )
                )
        return batch

    def _execute(self, batch: list[_Request]) -> None:
        """Run one drained batch against the shard's DB, piece by piece.

        Pieces run in arrival order, each its own read: a point piece is
        one ``multi_get`` of its keys, a range piece one ``range_query``.
        A read that raises fails only its own piece.
        """
        keys = 0
        for request in batch:
            try:
                if request.keys is None:
                    answer = self.db.range_query(request.low, request.high)
                else:
                    keys += len(request.keys)
                    answer = self.db.multi_get(request.keys)
            except Exception as exc:  # noqa: BLE001 - to that read's caller
                request.sink.fail(exc)
            else:
                request.sink.deliver(request.position, answer)
        if keys:
            self.stats.add(batches=1, batched_keys=keys)

    def close(self) -> bool:
        """Refuse new pieces, wait for a running combiner, close the DB.

        A combiner drains what is queued before it stops.  Returns True
        when one is still running after ``_WORKER_JOIN_TIMEOUT_S``: the
        pieces it holds, in flight or queued, are failed with
        :class:`ClosedStoreError` rather than left pending, and
        ``worker_leaks`` is counted.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()  # submitters blocked on a full queue
            leaked = not self._cond.wait_for(
                lambda: not self._combining, _WORKER_JOIN_TIMEOUT_S
            )
            victims = [*self._inflight, *self._queue] if leaked else []
            self._inflight = []
            self._queue.clear()
        for request in victims:
            request.sink.fail(
                ClosedStoreError("serving layer closed with a stuck batch")
            )
        if leaked:
            self.stats.add(worker_leaks=1)
        self.db.close()
        return leaked


class ShardedServer:
    """A key-range sharded serving layer over N in-process DB shards.

    Examples
    --------
    >>> from repro.lsm import DBOptions
    >>> from repro.lsm.serving import ServingOptions, ShardedServer
    >>> server = ShardedServer(
    ...     "/tmp/example-serving",
    ...     DBOptions(key_bits=32),
    ...     ServingOptions(num_shards=2),
    ... )
    >>> server.put(42, b"value")
    >>> server.get_async(42).result()
    b'value'
    >>> server.range_query_async(40, 50).result()
    [(42, b'value')]
    >>> server.close()
    []

    Every read returns a :class:`concurrent.futures.Future`, so a
    client can keep many requests in flight, and they queue behind the
    batch running on their shard.  A submit
    that finds its shard idle runs the batch before it returns, so the
    future may already be settled.  Every queued read accepts
    ``deadline_s`` (relative seconds; omitted, the read has no deadline).
    """

    def __init__(
        self,
        path: str,
        db_options: DBOptions | None = None,
        serving: ServingOptions | None = None,
    ) -> None:
        self.serving = serving if serving is not None else ServingOptions()
        self.serving.validate()
        base = db_options if db_options is not None else DBOptions()
        base.validate()
        self.router = ShardRouter(base.key_bits, self.serving.num_shards)
        root = Path(path)
        root.mkdir(parents=True, exist_ok=True)
        self._closed = False
        self._leaked_workers: list[int] = []
        self._shards: list[_Shard] = []
        try:
            for index in range(self.serving.num_shards):
                db = DB(str(root / f"shard_{index:03d}"), replace(base))
                self._shards.append(
                    _Shard(index, db, self.serving, ServingStats())
                )
        except BaseException:
            for shard in self._shards:
                shard.close()
            raise

    # ------------------------------------------------------------------
    # Reads: every one is a scatter of per-shard pieces into one sink
    # ------------------------------------------------------------------
    def _admit(self, deadline_s: float | None) -> float | None:
        """Refuse a closed server; relative deadline -> monotonic instant."""
        self._check_open()
        if deadline_s is None:
            return None
        if deadline_s <= 0:
            raise InvalidOptionsError(f"deadline_s must be > 0: {deadline_s}")
        return time.monotonic() + deadline_s

    def _scatter(
        self,
        counter: str,
        pieces: list[tuple[int, list[int] | None, int, int]],
        combine: Callable[[list], object],
        deadline: float | None,
    ) -> Future:
        """Queue every ``(shard, keys, low, high)`` piece of one read, or none.

        ``pieces`` come in shard order, the order their shards' locks are
        taken.  With all of them held, each shard takes its piece, or
        refuses the read (closed, or full under ``shed``) before anything
        is queued, or is full under ``block``: then every lock is
        released, the caller waits on that shard for room (bounded by the
        deadline) and tries again.  Queued, each piece is counted in its
        shard's ``counter``, and the caller drains every shard it found
        idle.  The returned future is the sink's, settled once every
        piece is in.
        """
        sink = _ScatterSink(len(pieces), combine)
        placed = [
            (
                self._shards[index],
                _Request(keys, low, high, sink, position, deadline),
            )
            for position, (index, keys, low, high) in enumerate(pieces)
        ]
        waited: set[_Shard] = set()
        idle: list[_Shard] | None = None
        while idle is None:
            held: list[_Shard] = []
            full = None
            try:
                for shard, _ in placed:
                    shard._cond.acquire()
                    held.append(shard)
                    if shard._full_locked():
                        full = shard
                        break
                else:
                    idle = [
                        shard for shard, request in placed
                        if shard._push_locked(request)
                    ]
            finally:
                for shard in held:
                    shard._cond.release()
            if full is not None:
                full._wait_for_room(deadline, first=full not in waited)
                waited.add(full)
        for shard, _ in placed:
            shard.stats.add(**{counter: 1})
        for shard in idle:
            shard.drain()
        return sink.future

    def get_async(self, key: int, deadline_s: float | None = None) -> Future:
        """Async point lookup; the future resolves to ``bytes | None``."""
        deadline = self._admit(deadline_s)
        key = int(key)
        return self._scatter(
            "point_requests",
            [(self.router.shard_of(key), [key], 0, 0)],
            lambda parts: parts[0][key],
            deadline,
        )

    def multi_get_async(
        self, keys: Iterable[int], deadline_s: float | None = None
    ) -> Future:
        """Async batched lookup; resolves to ``{key: bytes | None}``.

        Keys are split by owning shard; each shard answers its group with
        one ``multi_get``.  No keys resolve
        to ``{}`` without touching a shard.
        """
        deadline = self._admit(deadline_s)
        key_list = [int(key) for key in keys]
        groups = self.router.group_keys(key_list)

        def combine(parts: list) -> dict[int, bytes | None]:
            merged: dict[int, bytes | None] = {}
            for part in parts:
                merged.update(part)
            return {key: merged[key] for key in key_list}

        return self._scatter(
            "multi_requests",
            [(shard, group, 0, 0) for shard, group in sorted(groups.items())],
            combine,
            deadline,
        )

    def range_query_async(
        self, low: int, high: int, deadline_s: float | None = None
    ) -> Future:
        """Async inclusive range scan; resolves to sorted pairs.

        The range splits at shard boundaries and the shard answers
        concatenate in shard order — no merge needed, shards are
        contiguous.  Inverted ranges raise here, eagerly; a range wholly
        outside the key domain resolves empty without touching a shard.
        """
        deadline = self._admit(deadline_s)
        pieces = self.router.split_range(low, high)
        return self._scatter(
            "range_requests",
            [(shard, None, lo, hi) for shard, lo, hi in pieces],
            _concat,
            deadline,
        )

    # ------------------------------------------------------------------
    # Writes (routed straight to the owning shard's write path,
    # gated by that shard's circuit breaker)
    # ------------------------------------------------------------------
    def put(self, key: int, value: bytes) -> None:
        """Insert or overwrite a key on its owning shard."""
        self._check_open()
        shard = self._shards[self.router.shard_of(key)]
        shard.stats.add(write_requests=1)
        shard.guarded_write(lambda: shard.db.put(key, value))

    # ------------------------------------------------------------------
    # Maintenance / introspection
    # ------------------------------------------------------------------
    @property
    def shards(self) -> tuple[DB, ...]:
        """The underlying per-shard DBs (read-mostly; for tests/tools)."""
        return tuple(shard.db for shard in self._shards)

    def flush(self) -> None:
        """Flush every shard (synchronous barrier per shard)."""
        self._check_open()
        for shard in self._shards:
            shard.db.flush()

    def wait_idle(self) -> bool:
        """Whether every shard is settled (each ``DB.wait_idle``)."""
        self._check_open()
        return all(shard.db.wait_idle() for shard in self._shards)

    def health(self) -> ServingHealth:
        """Aggregate + per-shard health, including live queue depths and
        breaker states."""
        reports = tuple(shard.db.health() for shard in self._shards)
        breaker_states = tuple(
            shard.breaker_state() for shard in self._shards
        )
        degraded = any(r.mode != "healthy" for r in reports) or any(
            state != "closed" for state in breaker_states
        )
        return ServingHealth(
            mode="degraded" if degraded else "healthy",
            shards=reports,
            queue_depths=tuple(
                shard.queue_depth() for shard in self._shards
            ),
            filters_degraded=sum(
                len(r.degraded_filters) for r in reports
            ),
            filters_under_attack=sum(
                r.filters_under_attack for r in reports
            ),
            breaker_states=breaker_states,
        )

    def stats(self) -> ServingStats:
        """Aggregate front-end counters across all shards."""
        return ServingStats.aggregate(
            shard.stats for shard in self._shards
        )

    def perf_totals(self) -> PerfStats:
        """Sum of every shard DB's :class:`PerfStats` (one snapshot each)."""
        return PerfStats.aggregate(shard.db.stats for shard in self._shards)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> list[int]:
        """Refuse new requests, let running batches finish, close every
        shard DB.

        Returns the indexes of shards whose batch outlived the wait
        (still running past ``_WORKER_JOIN_TIMEOUT_S``; its pending
        futures were failed with :class:`ClosedStoreError` rather than
        stranded, and each leak is counted in
        ``ServingStats.worker_leaks``).  Empty on a clean shutdown.
        Idempotent: repeat calls return the same list.
        """
        if self._closed:
            return list(self._leaked_workers)
        self._closed = True
        leaked = [
            shard.index for shard in self._shards if shard.close()
        ]
        self._leaked_workers = leaked
        return list(leaked)

    def _check_open(self) -> None:
        if self._closed:
            raise ClosedStoreError("operation on a closed serving layer")

    def __enter__(self) -> "ShardedServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
