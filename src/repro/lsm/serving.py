"""Sharded batch-serving front-end over N key-range `DB` shards.

The paper positions Rosetta as the filter inside a *serving* key-value
store; this module is the serving layer.  One logical store is
partitioned by key range (:class:`~repro.lsm.shard.ShardRouter`) across
``N`` in-process :class:`~repro.lsm.db.DB` shards, fronted by an async
batch API that **coalesces** concurrent ``get`` / ``multi_get`` /
``range_query`` calls into the store's existing batched read paths:

* every shard owns a request queue and one worker thread;
* the worker sleeps only on an empty queue (no timed wait for company:
  docs/internals.md has what one costs under the GIL); the point lookups
  client threads queued while it ran the previous batch are drained
  together and answered with **one** :meth:`DB.multi_get` — which
  already dedups keys, sweeps the memtables once, and probes every
  run's filter with one ``may_contain_batch`` per run;
* range queries split at shard boundaries
  (:meth:`ShardRouter.split_range`), run on the shards they touch, and
  reassemble in shard order (shards are contiguous, so concatenation is
  the sorted merge).

Filters are immutable once built and every read takes its DB's current
superversion with one unlocked attribute read, so batched probes fan out
across client and worker threads with zero locking in the read path —
the only serialization points are the per-shard lock (a condition
variable held for queue and breaker bookkeeping only) and each shard's
own write lock.

Fault tolerance — the serving layer fails *fast and typed*, never
silently and never by hanging:

* **Deadlines.** Every queued read can carry a deadline, per call
  (``deadline_s=`` on the submit; there is no server-wide default).
  Deadlines are enforced at dequeue — an expired request fails with
  :class:`~repro.errors.DeadlineExceededError` instead of occupying a
  batch.  A submitter blocked on a full queue gives up when its
  deadline passes.
* **Load shedding.** ``ServingOptions.queue_policy = "shed"`` rejects
  submits over ``max_queue_depth`` immediately with
  :class:`~repro.errors.QueueFullError` (counted in
  ``ServingStats.sheds``) instead of blocking the submitter — bounded
  queues with fast rejection instead of unbounded client-side waits.
* **Circuit breaker + supervisor.** Each shard carries a breaker
  (``closed`` → ``open`` → ``half_open`` → ``closed``; terminally
  ``failed``).  A degraded-mode flip of the shard DB (background write
  error) or a drain-worker crash trips it ``open``: writes fail fast
  with :class:`~repro.errors.ShardUnavailableError` while reads keep
  passing through as long as the DB allows (degraded mode is read-only,
  not read-never).  A supervisor thread retries :meth:`DB.resume` with
  capped exponential backoff through ``half_open`` back to ``closed``,
  and restarts crashed drain workers up to
  ``ServingOptions.max_worker_restarts`` times — after which the shard
  is permanently ``failed`` and every request fails fast.
* **Crash containment.** A crashed drain worker marks the shard failed,
  fails every queued and in-flight request with
  :class:`~repro.errors.WorkerCrashedError`, and wakes all submitters
  blocked on the full queue — no future is ever stranded on a dead
  worker.  :meth:`ShardedServer.close` detects a worker that outlives
  its join timeout, fails that shard's pending futures with
  :class:`~repro.errors.ClosedStoreError`, and reports the leak.

Everything is observable: per-shard + aggregate :class:`ServingStats`
counters (batches, coalescing, sheds, deadline misses, breaker trips /
recoveries, worker crashes / restarts, queue-depth high-water), and
:meth:`ShardedServer.health` reports every shard's
:class:`~repro.lsm.db.HealthReport` plus live queue depths, breaker
states, and worker liveness.
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
    WorkerCrashedError,
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

#: Ceiling on requests drained into one batch.
_MAX_BATCH_REQUESTS = 256

#: Ceiling on point keys resolved by one batched ``multi_get`` (a single
#: oversized request still runs alone).
_MAX_BATCH_KEYS = 512

#: Supervisor tick (breaker probes, health polls, worker liveness), and
#: how long :meth:`ShardedServer.close` waits for each drain worker to
#: exit before declaring it leaked and failing its futures.
_SUPERVISOR_POLL_S = 0.02
_WORKER_JOIN_TIMEOUT_S = 30.0


@dataclass
class ServingOptions:
    """Tuning knobs for :class:`ShardedServer`."""

    #: Number of key-range shards (each one independent ``DB``).
    num_shards: int = 4

    #: Queue-depth ceiling per shard (see :attr:`queue_policy`).
    max_queue_depth: int = 4096

    #: What happens to a submit finding the queue at ``max_queue_depth``:
    #: ``"block"`` waits for the worker to drain (bounded by the
    #: request's deadline, if any); ``"shed"`` rejects immediately with
    #: :class:`~repro.errors.QueueFullError`.
    queue_policy: str = "block"

    #: Run the per-shard circuit breaker + supervisor thread.  Off, the
    #: serving layer behaves like the pre-breaker code: degraded shards
    #: leak :class:`~repro.errors.ReadOnlyStoreError` on every write and
    #: crashed workers are never restarted (submits still fail fast with
    #: :class:`~repro.errors.ShardUnavailableError` — crash containment
    #: is a bug fix, not a feature flag).
    breaker_enabled: bool = True

    #: First retry delay after a breaker trips open; doubles per failed
    #: ``DB.resume()`` probe up to :attr:`breaker_backoff_max_s`.
    breaker_backoff_initial_s: float = 0.05

    #: Ceiling on the breaker's exponential probe backoff.
    breaker_backoff_max_s: float = 2.0

    #: How many times the supervisor restarts a crashed drain worker
    #: before declaring the shard permanently ``failed``.
    max_worker_restarts: int = 3

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
        if self.max_worker_restarts < 0:
            raise InvalidOptionsError("max_worker_restarts must be >= 0")


@dataclass
class ServingStats(CounterSet):
    """Front-end counters — one instance per shard plus the aggregate.

    ``batches``/``coalesced_batches`` are the coalescing observables: a
    batch is *coalesced* when it resolved point keys from two or more
    distinct requests with one ``multi_get`` — the thing
    ``tests/lsm/test_serving.py`` asserts actually happens under
    concurrent clients.

    The fault-tolerance counters (``sheds``, ``deadline_misses``,
    ``breaker_trips`` / ``breaker_recoveries``, ``worker_crashes`` /
    ``worker_restarts`` / ``worker_leaks``, ``write_rejections``) make
    every fast-failure path visible: nothing is shed, expired, tripped,
    or restarted without a counter moving.
    """

    point_requests: int = 0      # get() calls routed to this shard
    multi_requests: int = 0      # multi_get() sub-requests for this shard
    range_requests: int = 0      # range pieces executed on this shard
    write_requests: int = 0      # put/delete routed to this shard
    batches: int = 0             # worker dispatches that ran a multi_get
    coalesced_batches: int = 0   # batches serving >= 2 point-bearing requests
    coalesced_requests: int = 0  # requests resolved inside those batches
    batched_keys: int = 0        # point keys resolved through multi_get
    queue_waits: int = 0         # submits that blocked on max_queue_depth
    sheds: int = 0               # submits rejected with QueueFullError
    deadline_misses: int = 0     # requests failed with DeadlineExceededError
    breaker_trips: int = 0       # closed/half_open -> open transitions
    breaker_recoveries: int = 0  # half_open -> closed transitions
    worker_crashes: int = 0      # drain-worker loops that died
    worker_restarts: int = 0     # supervisor worker restarts
    worker_leaks: int = 0        # workers alive past the close join timeout
    write_rejections: int = 0    # writes fast-failed by an open breaker
    max_batch_requests: int = 0  # high-water: requests in one batch
    max_batch_keys: int = 0      # high-water: point keys in one batch
    max_queue_depth: int = 0     # high-water: queued requests

    _MAX_FIELDS = ("max_batch_requests", "max_batch_keys", "max_queue_depth")


@dataclass(frozen=True)
class ServingHealth:
    """Aggregate + per-shard health (``ShardedServer.health()``).

    ``mode`` is ``"degraded"`` as soon as any shard is degraded, any
    breaker is not ``closed``, or any drain worker is down;
    ``queue_depths`` are the live per-shard request-queue lengths (the
    serving layer's own debt gauge, alongside each shard's
    ``pending_immutables``/``level0_runs``).  ``breaker_states`` and
    ``workers_alive`` expose the fault-tolerance machinery per shard.

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
    workers_alive: tuple[bool, ...] = ()


class _ScatterSink:
    """Gathers the per-shard pieces of one read and settles its future.

    Every read — ``get``, ``multi_get`` or ``range_query`` — is a scatter
    of zero or more per-shard pieces into one sink: one lock, a
    countdown, and the read's future.  Each shard worker deposits its
    piece at its position and the last one to arrive combines and
    resolves; a sink with no pieces resolves at construction.  The first
    failure wins and resolves the future exceptionally; later pieces are
    dropped.  The sink is the only code that settles a read's future, so
    it is the one place that tolerates a future already settled: the
    close path fails a wedged worker's pieces, and the worker — if it
    ever unwedges — must not crash on the leftovers.
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
    """One piece of a read, queued for a shard worker.

    A piece is a point lookup of ``keys`` or, with ``keys`` None, the
    range ``[low, high]``; its answer goes to ``sink`` at ``position``.
    ``deadline`` is an absolute ``time.monotonic()`` instant or None;
    the worker checks it at dequeue and the blocking submit path checks
    it while waiting on a full queue.
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

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now > self.deadline


class _Shard:
    """One key-range shard: a ``DB``, a request queue, a worker thread.

    One lock: ``_cond`` (a condition variable) guards queue surgery, the
    closed flag, the worker-death flag, the in-flight batch, the
    injected-fault hook, the circuit-breaker state machine (state /
    reason / backoff / next-probe instant), the worker restart budget,
    and the worker thread handle (rebound on restart).  All actual read
    work, and the breaker's ``DB.resume()`` probe, run outside it.
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
        self._worker_dead = False
        self._fault_to_inject: BaseException | None = None
        self._breaker_state = "closed"  # closed | open | half_open | failed
        self._breaker_reason: str | None = None
        self._backoff_s = options.breaker_backoff_initial_s
        self._next_probe_at = 0.0
        self._worker_restarts = 0
        self._thread = self._spawn_worker()
        self._thread.start()

    def _spawn_worker(self) -> threading.Thread:
        return threading.Thread(
            target=self._serve_loop,
            name=f"serving-shard-{self.index}",
            daemon=True,
        )

    # -- client side ----------------------------------------------------
    def submit(self, request: _Request) -> None:
        """Queue a read, applying the queue policy and the deadline.

        ``block`` waits for the worker to drain below ``max_queue_depth``
        (bounded by the request's deadline); ``shed`` raises
        :class:`QueueFullError` immediately.  A dead worker fails the
        submit fast — nothing may queue behind a worker that will never
        drain it.
        """
        opts = self.options
        with self._cond:
            self._check_accepting_locked()
            if len(self._queue) >= opts.max_queue_depth:
                if opts.queue_policy == "shed":
                    self.stats.add(sheds=1)
                    raise QueueFullError(
                        f"shard {self.index} queue at max_queue_depth="
                        f"{opts.max_queue_depth}; request shed"
                    )
                self.stats.add(queue_waits=1)
                while (
                    len(self._queue) >= opts.max_queue_depth
                    and not self._closed
                    and not self._worker_dead
                ):
                    timeout = None
                    if request.deadline is not None:
                        timeout = request.deadline - time.monotonic()
                        if timeout <= 0:
                            self.stats.add(deadline_misses=1)
                            raise DeadlineExceededError(
                                f"shard {self.index}: deadline expired "
                                f"while blocked on a full queue"
                            )
                    self._cond.wait(timeout)
                self._check_accepting_locked()
            self._queue.append(request)
            self.stats.observe_max("max_queue_depth", len(self._queue))
            self._cond.notify_all()

    def _check_accepting_locked(self) -> None:
        """Raise if the shard can no longer accept requests (_cond held)."""
        if self._closed:
            raise ClosedStoreError("serving layer is closed")
        if self._worker_dead:
            raise ShardUnavailableError(
                f"shard {self.index} drain worker is down"
                + (
                    ""
                    if self.options.breaker_enabled
                    else " (no supervisor to restart it)"
                )
            )

    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    def breaker_state(self) -> str:
        with self._cond:
            return self._breaker_state

    def worker_alive(self) -> bool:
        with self._cond:
            return not self._worker_dead and self._thread.is_alive()

    # -- write gate -----------------------------------------------------
    def guarded_write(self, write: Callable[[], None]) -> None:
        """Run a write unless the breaker fast-fails it.

        While ``open`` / ``half_open`` / ``failed``, writes are rejected
        without touching the DB (:class:`ShardUnavailableError`, counted
        in ``write_rejections``).  A write that finds the DB degraded
        trips the breaker and surfaces as :class:`ShardUnavailableError`
        (chained from the underlying
        :class:`~repro.errors.ReadOnlyStoreError`) so the caller-visible
        type is uniform from the first failure on.
        """
        with self._cond:
            state = self._breaker_state
            reason = self._breaker_reason
        if state != "closed":
            self.stats.add(write_rejections=1)
            raise ShardUnavailableError(
                f"shard {self.index} breaker {state}"
                + (f" ({reason})" if reason else "")
            )
        try:
            write()
        except ReadOnlyStoreError as exc:
            if not self.options.breaker_enabled:
                raise
            self._trip(f"degraded shard DB: {exc}")
            raise ShardUnavailableError(
                f"shard {self.index} tripped open: {exc}"
            ) from exc

    # -- breaker state machine ------------------------------------------
    def _trip(self, reason: str) -> None:
        """closed/half_open -> open (idempotent while already open)."""
        with self._cond:
            if self._breaker_state == "failed":
                return
            if self._breaker_state == "open":
                self._breaker_reason = reason
                return
            self._breaker_state = "open"
            self._breaker_reason = reason
            self._backoff_s = self.options.breaker_backoff_initial_s
            self._next_probe_at = time.monotonic() + self._backoff_s
        self.stats.add(breaker_trips=1)

    def supervise(self) -> None:
        """One supervisor tick: restart a dead worker, probe the breaker.

        Called only from the server's supervisor thread (single caller),
        and only when ``breaker_enabled``.
        """
        self._maybe_restart_worker()
        self._maybe_probe_breaker()
        with self._cond:
            closed = self._breaker_state == "closed"
        if closed and self.db.background_error is not None:
            # Degraded-mode flip observed by polling rather than by a
            # failing write: trip so writes fail fast and probing starts.
            self._trip(f"degraded shard DB: {self.db.background_error}")

    def _maybe_restart_worker(self) -> None:
        """Restart a dead worker within its budget, in one critical section.

        The new thread starts before the lock is released, so
        :meth:`close` never sees a handle it could join before ``start``.
        """
        with self._cond:
            if (
                not self._worker_dead
                or self._closed
                or self._breaker_state == "failed"
            ):
                return
            if self._worker_restarts >= self.options.max_worker_restarts:
                self._breaker_state = "failed"
                self._breaker_reason = (
                    f"worker crashed {self._worker_restarts + 1} times; "
                    f"restart budget ({self.options.max_worker_restarts}) "
                    f"exhausted"
                )
                return
            self._worker_restarts += 1
            self._worker_dead = False
            self._thread = self._spawn_worker()
            self._thread.start()
        self.stats.add(worker_restarts=1)

    def _maybe_probe_breaker(self) -> None:
        now = time.monotonic()
        with self._cond:
            if self._breaker_state != "open" or now < self._next_probe_at:
                return
            self._breaker_state = "half_open"
        try:
            recovered = self.db.resume()
        except BaseException:  # noqa: BLE001 - a probe must never kill us
            recovered = False
        with self._cond:
            if self._breaker_state != "half_open":
                return  # a concurrent trip/close won; keep its verdict
            healed = recovered and not self._worker_dead
            if healed:
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

    # -- test / chaos hook ----------------------------------------------
    def inject_worker_fault(self, exc: BaseException) -> None:
        """Make the drain worker raise ``exc`` at its next dequeue.

        The chaos harness's (and the regression tests') way to model a
        drain-worker bug: the exception escapes the serve loop exactly
        like an unexpected crash would.
        """
        with self._cond:
            self._fault_to_inject = exc
            self._cond.notify_all()

    # -- worker side ----------------------------------------------------
    def _serve_loop(self) -> None:
        try:
            while True:
                batch = self._next_batch()
                if batch is None:
                    return
                if batch:
                    self._execute(batch)
        except BaseException as exc:  # noqa: BLE001 - crash containment
            self._on_worker_crash(exc)

    def _next_batch(self) -> list[_Request] | None:
        """Drain what is queued as one batch; sleep only on an empty queue.

        The batch is what piled up behind the previous one, up to
        ``_MAX_BATCH_REQUESTS`` / ``_MAX_BATCH_KEYS``; requests whose
        deadline already passed are failed fast at drain time instead of
        joining it.  Returns None only at shutdown with an empty queue — a
        non-empty queue at shutdown is still drained so no future is left
        dangling — and an empty list when everything drained had expired
        (the caller just loops).
        """
        expired: list[_Request] = []
        with self._cond:
            while (
                not self._queue
                and not self._closed
                and self._fault_to_inject is None
            ):
                self._cond.wait()
            if self._fault_to_inject is not None:
                fault = self._fault_to_inject
                self._fault_to_inject = None
                raise fault
            if not self._queue:
                return None  # closed and drained
            batch: list[_Request] = []
            keys = 0
            now = time.monotonic()
            while self._queue and len(batch) < _MAX_BATCH_REQUESTS:
                request = self._queue[0]
                if request.expired(now):
                    expired.append(self._queue.popleft())
                    continue
                weight = 0 if request.keys is None else len(request.keys)
                if batch and keys + weight > _MAX_BATCH_KEYS:
                    break
                batch.append(self._queue.popleft())
                keys += weight
            self._inflight = batch
            self._cond.notify_all()  # wake submitters blocked on depth
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
        """Resolve one drained batch against the shard's DB.

        All point pieces share one ``multi_get`` (the coalescing payoff)
        and each is handed its whole answer, which covers the piece's
        keys; range pieces then run in arrival order.
        """
        try:
            self.stats.observe_max("max_batch_requests", len(batch))
            point_requests = [r for r in batch if r.keys is not None]
            point_keys = [key for r in point_requests for key in r.keys]
            if point_keys:
                self.stats.add(batches=1, batched_keys=len(point_keys))
                self.stats.observe_max("max_batch_keys", len(point_keys))
                if len(point_requests) >= 2:
                    self.stats.add(
                        coalesced_batches=1,
                        coalesced_requests=len(point_requests),
                    )
                try:
                    values = self.db.multi_get(point_keys)
                except BaseException as exc:  # noqa: BLE001 - to callers
                    for request in point_requests:
                        request.sink.fail(exc)
                else:
                    for request in point_requests:
                        request.sink.deliver(request.position, values)
            for request in batch:
                if request.keys is not None:
                    continue
                try:
                    request.sink.deliver(
                        request.position,
                        self.db.range_query(request.low, request.high),
                    )
                except BaseException as exc:  # noqa: BLE001 - to callers
                    request.sink.fail(exc)
        finally:
            with self._cond:
                self._inflight = []

    def _on_worker_crash(self, exc: BaseException) -> None:
        """Contain a dead drain worker: strand no future, wake everyone.

        Marks the shard failed *before* notifying, so submitters blocked
        on the full queue wake into :class:`ShardUnavailableError`
        instead of waiting forever; every queued and in-flight request
        fails with :class:`WorkerCrashedError`; the breaker trips so the
        supervisor (when enabled) restarts the worker.
        """
        victims: list[_Request] = []
        with self._cond:
            self._worker_dead = True
            victims.extend(self._inflight)
            self._inflight = []
            victims.extend(self._queue)
            self._queue.clear()
            self._cond.notify_all()
        self.stats.add(worker_crashes=1)
        failure = WorkerCrashedError(
            f"shard {self.index} drain worker crashed: "
            f"{type(exc).__name__}: {exc}"
        )
        for request in victims:
            request.sink.fail(failure)
        if self.options.breaker_enabled:
            self._trip(
                f"worker crash: {type(exc).__name__}: {exc}"
            )

    def close(self) -> bool:
        """Stop the worker (drains the queue first), then the DB.

        Returns True when the worker leaked — still alive after
        ``_WORKER_JOIN_TIMEOUT_S`` — in which case its in-flight futures
        are failed with :class:`ClosedStoreError` rather than silently
        abandoned, and ``worker_leaks`` is counted.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
            thread = self._thread
        thread.join(timeout=_WORKER_JOIN_TIMEOUT_S)
        leaked = thread.is_alive()
        victims: list[_Request] = []
        with self._cond:
            victims.extend(self._queue)
            self._queue.clear()
            if leaked:
                # The wedged worker owns these; it may still settle them,
                # but the caller must not wait on it — fail them now
                # (their sinks tolerate the race on both sides).
                victims.extend(self._inflight)
                self._inflight = []
        message = "serving layer closed" + (
            " with a stuck worker" if leaked else ""
        )
        for request in victims:
            request.sink.fail(ClosedStoreError(message))
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
    client can keep many requests in flight — which is exactly what
    lets a batch pile up behind the worker.  Every queued read accepts
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
        self._stop_supervisor = threading.Event()
        self._supervisor: threading.Thread | None = None
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
        if self.serving.breaker_enabled:
            self._supervisor = threading.Thread(
                target=self._supervise_loop,
                name="serving-supervisor",
                daemon=True,
            )
            self._supervisor.start()

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
        """Queue each ``(shard, keys, low, high)`` piece of one read.

        Counts the piece in the shard's ``counter`` and submits it; the
        returned future is the sink's, settled once every piece is in.
        """
        sink = _ScatterSink(len(pieces), combine)
        for position, (shard_index, keys, low, high) in enumerate(pieces):
            shard = self._shards[shard_index]
            shard.stats.add(**{counter: 1})
            shard.submit(_Request(keys, low, high, sink, position, deadline))
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
        one (possibly further coalesced) ``multi_get``.  No keys resolve
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
            [(shard, group, 0, 0) for shard, group in groups.items()],
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
    # Supervisor
    # ------------------------------------------------------------------
    def _supervise_loop(self) -> None:
        """Restart dead workers and heal tripped breakers, forever.

        The supervisor is the last line of defense; a fault in one
        shard's tick must not stop it from supervising the others, so
        per-shard errors are contained (they surface through the shard's
        own breaker state, not by killing the supervisor).
        """
        while not self._stop_supervisor.wait(_SUPERVISOR_POLL_S):
            for shard in self._shards:
                try:
                    shard.supervise()
                except BaseException:  # noqa: BLE001 - must keep ticking
                    continue

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
        """Aggregate + per-shard health, including live queue depths,
        breaker states, and worker liveness."""
        reports = tuple(shard.db.health() for shard in self._shards)
        breaker_states = tuple(
            shard.breaker_state() for shard in self._shards
        )
        workers_alive = tuple(
            shard.worker_alive() for shard in self._shards
        )
        degraded = (
            any(r.mode != "healthy" for r in reports)
            or any(state != "closed" for state in breaker_states)
            or not all(workers_alive)
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
            workers_alive=workers_alive,
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
        """Drain every queue, stop the workers, close every shard DB.

        Returns the indexes of shards whose workers leaked (stayed alive
        past ``_WORKER_JOIN_TIMEOUT_S``; their pending futures were
        failed with :class:`ClosedStoreError` rather than stranded, and
        each leak is counted in ``ServingStats.worker_leaks``).  Empty
        on a clean shutdown.  Idempotent: repeat calls return the same
        list.
        """
        if self._closed:
            return list(self._leaked_workers)
        self._closed = True
        if self._supervisor is not None:
            self._stop_supervisor.set()
            self._supervisor.join(timeout=5.0)
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
