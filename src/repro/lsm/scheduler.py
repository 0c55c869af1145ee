"""Maintenance schedulers: inline, thread-pool, and deterministic replay.

The DB's one dispatcher (``DB._dispatch_maintenance``) hands every unit of
maintenance work (a flush of the sealed memtables, one compaction) to a
*scheduler* rather than spawning threads itself.  Three implementations
share one small interface:

``submit(name, fn)``
    Run ``fn`` as a background job, returning a :class:`JobHandle`.
``sync_point(tag)``
    A potential context-switch point.  The storage environment calls this
    at the top of every durable operation (see ``StorageEnv.yield_hook``),
    which is what lets the deterministic scheduler interleave foreground
    and background work at exactly the places crashes can occur.
``wait_for(predicate, timeout_s)``
    Block the calling thread until ``predicate()`` is true.  Used by the
    write-stall stop trigger and by ``DB.wait_idle``.
``notify()``
    Wake ``wait_for`` waiters after state they may be watching changed.
``make_lock()``
    A reentrant mutex that is safe to hold across ``sync_point`` yields.
``close(force)``
    Join workers.  With ``force=True`` (simulated power cut) parked jobs
    are released and unwound without running further I/O.

Implementations
---------------
:class:`InlineScheduler`
    No concurrency: ``submit`` runs the job on the calling thread before
    returning, so the dispatcher that submitted it finds the DB's job slot
    free again and picks the next job itself.  This is the default
    (``DBOptions.max_background_jobs == 0``): a fully synchronous store,
    with ``PowerCutError`` propagating to the writer that triggered the
    flush.

:class:`ThreadPoolScheduler`
    One real worker thread and a condition variable.  ``sync_point`` is a
    no-op; interleavings are whatever the OS produces.  This is what
    ``max_background_jobs == 1`` uses.

:class:`DeterministicScheduler`
    Cooperative token passing over real threads for torture testing: only
    the token holder executes at any moment, and every ``sync_point``
    hands the token to a pseudo-randomly chosen runnable task using a
    seeded RNG.  The same ``(workload seed, scheduler seed, crash point)``
    triple therefore replays the exact same interleaving, which makes
    concurrency bugs reproducible instead of flaky.  A ``PowerCutError``
    raised by any task marks the scheduler crashed; every other task is
    unwound with ``PowerCutError`` at its next yield, modelling the whole
    machine dying at once.
"""

from __future__ import annotations

import queue
import random
import threading
import time
from typing import Callable, List, Optional

from ..errors import PowerCutError

__all__ = [
    "JobHandle",
    "InlineScheduler",
    "ThreadPoolScheduler",
    "DeterministicScheduler",
    "CooperativeLock",
]


class JobHandle:
    """Completion record for one submitted job."""

    __slots__ = ("name", "done", "error", "result")

    def __init__(self, name: str) -> None:
        self.name = name
        self.done = False
        self.error: Optional[BaseException] = None
        self.result = None


class InlineScheduler:
    """Synchronous execution on the caller's thread.

    ``submit`` does not catch anything: the DB's job bodies convert
    ordinary I/O failures into degraded mode themselves, and exceptions
    that must reach the caller (``PowerCutError``, a bug's exception) do.
    """

    concurrent = False
    crashed = False

    def submit(self, name: str, fn: Callable[[], object]) -> JobHandle:
        handle = JobHandle(name)
        handle.result = fn()
        handle.done = True
        return handle

    def sync_point(self, tag: str = "") -> None:
        return None

    def wait_for(
        self, predicate: Callable[[], bool], timeout_s: Optional[float] = None
    ) -> bool:
        return bool(predicate())

    def notify(self) -> None:
        return None

    def make_lock(self) -> threading.RLock:
        return threading.RLock()

    def close(self, force: bool = False) -> None:
        return None


class ThreadPoolScheduler:
    """One real daemon worker thread.

    The DB never has more than one job running, so one worker serves it.
    Jobs are queued FIFO; the worker records results/errors on the handle
    and broadcasts on a condition variable so ``wait_for`` (stall waits,
    ``DB.wait_idle``, a foreground job waiting for the slot) re-evaluates
    its predicate promptly.
    """

    concurrent = True

    def __init__(self, name: str = "lsm-maintenance") -> None:
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._cond = threading.Condition()
        self.crashed = False
        self._closed = False
        self._thread = threading.Thread(
            target=self._worker_main, name=name, daemon=True
        )
        self._thread.start()

    def _worker_main(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            handle, fn = item
            try:
                handle.result = fn()
            except PowerCutError as exc:  # pragma: no cover - torture-only path
                handle.error = exc
                self.crashed = True
            except BaseException as exc:  # noqa: BLE001 - recorded, not lost
                handle.error = exc
            finally:
                handle.done = True
                self.notify()

    def submit(self, name: str, fn: Callable[[], object]) -> JobHandle:
        handle = JobHandle(name)
        self._queue.put((handle, fn))
        return handle

    def sync_point(self, tag: str = "") -> None:
        return None

    def wait_for(
        self, predicate: Callable[[], bool], timeout_s: Optional[float] = None
    ) -> bool:
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        with self._cond:
            while True:
                if self.crashed:
                    raise PowerCutError("scheduler crashed while waiting")
                if predicate():
                    return True
                if deadline is None:
                    self._cond.wait(0.05)
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(min(remaining, 0.05))

    def notify(self) -> None:
        with self._cond:
            self._cond.notify_all()

    def make_lock(self) -> threading.RLock:
        return threading.RLock()

    def close(self, force: bool = False) -> None:
        if self._closed:
            return
        self._closed = True
        self._queue.put(None)
        self._thread.join(timeout=10.0)


class CooperativeLock:
    """Reentrant mutex for the deterministic scheduler.

    Because only the token holder ever executes, plain attribute reads and
    writes here are race-free; contention is resolved by yielding the
    token until the owner releases.  Unlike ``threading.RLock`` it is safe
    to hold across ``sync_point`` — a blocked acquirer spins through
    yields instead of blocking the only runnable thread.
    """

    __slots__ = ("_scheduler", "_owner", "_depth")

    def __init__(self, scheduler: "DeterministicScheduler") -> None:
        self._scheduler = scheduler
        self._owner: Optional[int] = None
        self._depth = 0

    def acquire(self) -> bool:
        me = threading.get_ident()
        while True:
            if self._owner is None or self._owner == me:
                self._owner = me
                self._depth += 1
                return True
            self._scheduler.sync_point("lock-wait")

    def release(self) -> None:
        if self._owner != threading.get_ident():
            raise RuntimeError("CooperativeLock released by non-owner")
        self._depth -= 1
        if self._depth == 0:
            self._owner = None

    def __enter__(self) -> "CooperativeLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()


class _Task:
    __slots__ = ("name", "event", "is_job")

    def __init__(self, name: str, is_job: bool) -> None:
        self.name = name
        self.event = threading.Event()
        self.is_job = is_job


class DeterministicScheduler:
    """Seeded cooperative scheduler: one runnable task at a time.

    Token discipline: the thread currently holding the token runs; every
    other registered task is parked in ``_runnable`` waiting on its event.
    ``sync_point`` picks the next runner with the seeded RNG from
    ``runnable + [current]``; choosing ``current`` means "keep running".
    Job threads are created per ``submit`` and start parked, so a newly
    scheduled flush only begins executing when some sync point hands it
    the token.

    ``wait_yield_bound`` bounds cooperative waits: ``wait_for`` gives up
    (returns ``False``) after that many yields, which is what converts a
    genuinely wedged configuration into ``WriteStallTimeoutError`` instead
    of a hang.
    """

    concurrent = True

    def __init__(self, seed: int = 0, wait_yield_bound: int = 50_000) -> None:
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._runnable: List[_Task] = []
        self._tasks: dict[int, _Task] = {}
        self._threads: List[threading.Thread] = []
        self._dead = False
        self.crashed = False
        self.switches = 0
        self._wait_yield_bound = wait_yield_bound
        main = _Task("main", is_job=False)
        self._tasks[threading.get_ident()] = main

    # ------------------------------------------------------------------
    # Core token passing
    # ------------------------------------------------------------------
    def _current(self) -> Optional[_Task]:
        return self._tasks.get(threading.get_ident())

    def sync_point(self, tag: str = "") -> None:
        me = self._current()
        if me is None:
            return
        if self._dead:
            if me.is_job:
                raise PowerCutError(f"scheduler torn down at {tag!r}")
            return
        with self._lock:
            if not self._runnable:
                return
            choice = self._rng.choice(self._runnable + [me])
            if choice is me:
                return
            self.switches += 1
            self._runnable.remove(choice)
            self._runnable.append(me)
            me.event.clear()
            choice.event.set()
        me.event.wait()
        if self._dead and me.is_job:
            raise PowerCutError(f"scheduler torn down at {tag!r}")

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------
    def submit(self, name: str, fn: Callable[[], object]) -> JobHandle:
        handle = JobHandle(name)
        task = _Task(name, is_job=True)
        # Register as runnable *before* the thread starts so a wait_for on
        # the submitting thread immediately sees the pending work.
        with self._lock:
            self._runnable.append(task)
        thread = threading.Thread(
            target=self._job_main,
            args=(task, fn, handle),
            name=f"det-{name}",
            daemon=True,
        )
        self._threads.append(thread)
        thread.start()
        return handle

    def _job_main(self, task: _Task, fn: Callable[[], object], handle: JobHandle) -> None:
        self._tasks[threading.get_ident()] = task
        task.event.wait()
        try:
            if self._dead:
                raise PowerCutError("scheduler torn down before job start")
            handle.result = fn()
        except PowerCutError as exc:
            handle.error = exc
            self.crashed = True
        except BaseException as exc:  # noqa: BLE001 - recorded, not lost
            handle.error = exc
        finally:
            handle.done = True
            with self._lock:
                self._tasks.pop(threading.get_ident(), None)
                if self._runnable and not self._dead:
                    nxt = self._rng.choice(self._runnable)
                    self._runnable.remove(nxt)
                    nxt.event.set()
                elif self._dead:
                    for parked in self._runnable:
                        parked.event.set()

    # ------------------------------------------------------------------
    # Waiting
    # ------------------------------------------------------------------
    def wait_for(
        self, predicate: Callable[[], bool], timeout_s: Optional[float] = None
    ) -> bool:
        # timeout_s is accepted for interface parity; deterministic waits
        # are bounded in yields, not wall time, to stay replayable.
        del timeout_s
        yields = 0
        while True:
            if self.crashed:
                raise PowerCutError("scheduler crashed while waiting")
            if predicate():
                return True
            with self._lock:
                others = bool(self._runnable)
            if not others:
                return bool(predicate())
            if yields >= self._wait_yield_bound:
                return False
            self.sync_point("wait")
            yields += 1

    def notify(self) -> None:
        return None

    def make_lock(self) -> CooperativeLock:
        return CooperativeLock(self)

    def close(self, force: bool = False) -> None:
        del force  # deterministic teardown is always forceful and I/O-free
        with self._lock:
            self._dead = True
            for task in list(self._tasks.values()):
                task.event.set()
            for task in self._runnable:
                task.event.set()
            self._runnable.clear()
        for thread in self._threads:
            thread.join(timeout=10.0)
        self._threads.clear()
