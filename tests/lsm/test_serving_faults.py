"""Serving-layer fault tolerance: deadlines, shedding, breaker, crashes.

The contract under test: every way a request can fail is *typed*, *fast*,
and *accounted* — deadlines are enforced at dequeue; a full queue sheds
or blocks (bounded by the deadline) per ``queue_policy``; a degraded
shard trips its circuit breaker (writes fail fast, reads pass, the
supervisor heals it); a crashed drain worker strands nothing (satellite
regression: blocked submitters used to hang forever) and is restarted
within its budget; and ``close()`` reports a stuck worker instead of
silently leaking it.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import (
    ClosedStoreError,
    DeadlineExceededError,
    InvalidOptionsError,
    QueueFullError,
    ShardUnavailableError,
    TransientIOError,
    WorkerCrashedError,
)
from repro.lsm.faults import FaultInjectionEnv
from repro.lsm.options import DBOptions
from repro.lsm.serving import ServingOptions, ShardedServer

KEY_BITS = 16
DOMAIN = 1 << KEY_BITS


def _db_options(**overrides) -> DBOptions:
    base = dict(
        key_bits=KEY_BITS,
        memtable_size_bytes=4 << 10,
        sst_size_bytes=8 << 10,
        block_size_bytes=512,
        max_bytes_for_level_base=32 << 10,
    )
    base.update(overrides)
    return DBOptions(**base)


def _server(tmp_path, db_overrides=None, **serving_overrides) -> ShardedServer:
    serving = dict(
        num_shards=2,
        breaker_backoff_initial_s=0.01,
        breaker_backoff_max_s=0.05,
    )
    serving.update(serving_overrides)
    return ShardedServer(
        str(tmp_path / "srv"),
        _db_options(**(db_overrides or {})),
        ServingOptions(**serving),
    )


class _BlockedWorker:
    """Wedges one shard's worker inside ``db.multi_get`` until released."""

    def __init__(self, shard) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()

        def blocked(keys):
            self.entered.set()
            self.release.wait(timeout=30.0)
            return {key: None for key in keys}

        shard.db.multi_get = blocked


def _wedge(server: ShardedServer, shard_index: int) -> _BlockedWorker:
    """Park the shard's worker in an in-flight batch; returns the latch."""
    shard = server._shards[shard_index]
    blocker = _BlockedWorker(shard)
    shard.submit_probe = server.get_async(
        _key_on(server, shard_index)
    )  # first request: drained and stuck in _execute
    assert blocker.entered.wait(timeout=5.0)
    return blocker


def _key_on(server: ShardedServer, shard_index: int) -> int:
    for key in range(DOMAIN):
        if server.router.shard_of(key) == shard_index:
            return key
    raise AssertionError("no key maps to shard")


# ---------------------------------------------------------------------------
# Options validation
# ---------------------------------------------------------------------------
class TestOptionValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(queue_policy="drop"),
            dict(breaker_backoff_initial_s=0.0),
            dict(breaker_backoff_initial_s=2.0, breaker_backoff_max_s=1.0),
            dict(max_worker_restarts=-1),
        ],
    )
    def test_bad_options_rejected(self, bad) -> None:
        with pytest.raises(InvalidOptionsError):
            ServingOptions(**bad).validate()

    def test_bad_request_deadline_rejected(self, tmp_path) -> None:
        with _server(tmp_path) as server:
            with pytest.raises(InvalidOptionsError):
                server.get_async(1, deadline_s=0.0).result()


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------
class TestDeadlines:
    def test_expired_in_queue_fails_at_dequeue(self, tmp_path) -> None:
        """A request whose deadline passes while queued behind a stuck
        batch fails with DeadlineExceededError instead of executing, and
        the live request queued with it is batched without it."""
        server = _server(tmp_path)
        blocker = None
        try:
            blocker = _wedge(server, 0)
            queued = server.get_async(_key_on(server, 0), deadline_s=0.05)
            live = server.get_async(_key_on(server, 0))
            time.sleep(0.15)  # let the deadline lapse while queued
            blocker.release.set()
            with pytest.raises(DeadlineExceededError):
                queued.result(timeout=5.0)
            assert live.result(timeout=5.0) is None
            stats = server.stats()
            assert stats.deadline_misses == 1
            # The wedge's probe, then the live request alone.
            assert (stats.batches, stats.batched_keys) == (2, 2)
        finally:
            if blocker is not None:
                blocker.release.set()
            server.close()


# ---------------------------------------------------------------------------
# A failing piece fails the read it belongs to
# ---------------------------------------------------------------------------
class TestFailedPiece:
    def test_failing_shard_fails_every_read_it_serves(
        self, tmp_path, monkeypatch
    ) -> None:
        with _server(tmp_path) as server:
            key0, key1 = _key_on(server, 0), _key_on(server, 1)
            server.put(key0, b"zero")
            shard1 = server._shards[1].db

            def fail(*args):
                raise TransientIOError("shard 1 read failed")

            monkeypatch.setattr(shard1, "multi_get", fail)
            monkeypatch.setattr(shard1, "range_query", fail)
            with pytest.raises(TransientIOError):
                server.multi_get_async([key0, key1]).result(timeout=5.0)
            low, high = server.router.span(0)[1] - 3, key1 + 3
            with pytest.raises(TransientIOError):
                server.range_query_async(low, high).result(timeout=5.0)
            with pytest.raises(TransientIOError):
                server.get_async(key1).result(timeout=5.0)
            assert server.get_async(key0).result(timeout=5.0) == b"zero"


# ---------------------------------------------------------------------------
# Load shedding
# ---------------------------------------------------------------------------
class TestShedding:
    def test_shed_rejects_over_depth(self, tmp_path) -> None:
        server = _server(tmp_path, queue_policy="shed", max_queue_depth=2)
        blocker = None
        try:
            blocker = _wedge(server, 0)
            key = _key_on(server, 0)
            pending = [server.get_async(key) for _ in range(2)]  # fills queue
            with pytest.raises(QueueFullError):
                server.get_async(key).result()
            assert server.stats().sheds == 1
            blocker.release.set()
            for future in pending:
                future.result(timeout=5.0)
        finally:
            if blocker is not None:
                blocker.release.set()
            server.close()

    def test_blocked_submit_honors_deadline(self, tmp_path) -> None:
        server = _server(tmp_path, queue_policy="block", max_queue_depth=1)
        blocker = None
        try:
            blocker = _wedge(server, 0)
            key = _key_on(server, 0)
            server.get_async(key)  # fills the 1-deep queue
            with pytest.raises(DeadlineExceededError):
                server.get_async(key, deadline_s=0.05).result()
            assert server.stats().deadline_misses == 1
        finally:
            if blocker is not None:
                blocker.release.set()
            server.close()


# ---------------------------------------------------------------------------
# Worker crash containment (satellite 1 regression) + restarts
# ---------------------------------------------------------------------------
class TestWorkerCrash:
    def test_crash_wakes_blocked_submitters(self, tmp_path) -> None:
        """Regression: submitters blocked on a full queue whose worker
        died used to wait forever on the Condition."""
        server = _server(
            tmp_path,
            queue_policy="block",
            max_queue_depth=1,
            breaker_enabled=False,
        )
        blocker = None
        try:
            blocker = _wedge(server, 0)
            key = _key_on(server, 0)
            queued = server.get_async(key)  # fills the queue
            submit_errors: list[BaseException] = []

            def blocked_submit() -> None:
                try:
                    server.get_async(key).result()
                except BaseException as exc:  # noqa: BLE001 - asserted below
                    submit_errors.append(exc)

            submitters = [
                threading.Thread(target=blocked_submit) for _ in range(3)
            ]
            for thread in submitters:
                thread.start()
            time.sleep(0.1)  # let them block on the full queue
            server._shards[0].inject_worker_fault(
                RuntimeError("injected crash")
            )
            blocker.release.set()  # batch finishes; next dequeue raises
            for thread in submitters:
                thread.join(timeout=5.0)
                assert not thread.is_alive(), "submitter hung on dead worker"
            assert len(submit_errors) == 3
            assert all(
                isinstance(exc, ShardUnavailableError)
                for exc in submit_errors
            )
            with pytest.raises(WorkerCrashedError):
                queued.result(timeout=5.0)
            stats = server.stats()
            assert stats.worker_crashes == 1
            assert stats.worker_restarts == 0  # breaker (supervisor) off
        finally:
            if blocker is not None:
                blocker.release.set()
            server.close()

    def test_restarted_worker_starts_inside_the_lock(
        self, tmp_path, monkeypatch
    ) -> None:
        """close() reads the worker handle under the shard's lock, so a
        restart must rebind the handle and start the thread before it
        releases that lock: otherwise close() can join a thread that was
        never started."""
        server = _server(tmp_path, breaker_enabled=False)
        shard = server._shards[0]
        try:
            crashed = shard._thread
            shard.inject_worker_fault(RuntimeError("boom"))
            crashed.join(timeout=5.0)
            assert not crashed.is_alive()
            lock_free_at_start: list[bool] = []

            def probe() -> None:
                free = shard._cond.acquire(blocking=False)
                if free:
                    shard._cond.release()
                lock_free_at_start.append(free)

            spawn = shard._spawn_worker

            def spawn_probed() -> threading.Thread:
                thread = spawn()
                start = thread.start

                def start_probed() -> None:
                    prober = threading.Thread(target=probe)
                    prober.start()
                    prober.join(timeout=5.0)
                    start()

                thread.start = start_probed
                return thread

            monkeypatch.setattr(shard, "_spawn_worker", spawn_probed)
            shard._maybe_restart_worker()
            assert lock_free_at_start == [False]
            assert server.get_async(_key_on(server, 0)).result(5.0) is None
        finally:
            server.close()

    def test_supervisor_restarts_worker(self, tmp_path) -> None:
        server = _server(tmp_path, max_worker_restarts=1)
        try:
            server.put(3, b"x")
            server._shards[0].inject_worker_fault(RuntimeError("boom"))
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if server.stats().worker_restarts == 1:
                    break
                time.sleep(0.01)
            assert server.stats().worker_restarts == 1
            assert server.get_async(3).result() == b"x"  # restarted worker serves again

            # Second crash exhausts the budget: permanently failed.
            server._shards[0].inject_worker_fault(RuntimeError("boom 2"))
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if server._shards[0].breaker_state() == "failed":
                    break
                time.sleep(0.01)
            assert server._shards[0].breaker_state() == "failed"
            with pytest.raises(ShardUnavailableError):
                server.get_async(_key_on(server, 0)).result()
            with pytest.raises(ShardUnavailableError):
                server.put(_key_on(server, 0), b"nope")
            assert server.stats().write_rejections >= 1
            health = server.health()
            assert health.mode == "degraded"
            assert health.breaker_states[0] == "failed"
        finally:
            server.close()


# ---------------------------------------------------------------------------
# Circuit breaker lifecycle on a degraded shard DB
# ---------------------------------------------------------------------------
class TestBreakerLifecycle:
    def test_trip_fastfail_heal(self, tmp_path) -> None:
        envs: list[FaultInjectionEnv] = []

        def env_factory(root, device, stats):
            env = FaultInjectionEnv(root, device, stats, seed=7)
            envs.append(env)
            return env

        server = _server(tmp_path, db_overrides=dict(env_factory=env_factory))
        try:
            key0 = _key_on(server, 0)
            key1 = _key_on(server, 1)
            server.put(key0, b"a")
            server.put(key1, b"b")
            server.flush()
            server.put(key0, b"a2")

            # Next write on shard 0 is the flush's SST write: it fails,
            # the shard parks degraded (flush itself does not raise).
            envs[0].fail_next_writes(1)
            server._shards[0].db.flush()
            assert server._shards[0].db.background_error is not None

            # Writes to shard 0 fast-fail typed; shard 1 is untouched;
            # reads on the degraded shard still pass through.
            with pytest.raises(ShardUnavailableError):
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    server.put(key0, b"a3")
                    time.sleep(0.005)
                pytest.fail("breaker never tripped")
            server.put(key1, b"b2")
            assert server.get_async(key0).result() == b"a2"

            # The supervisor heals it: breaker closed, writes flow again.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if server._shards[0].breaker_state() == "closed":
                    break
                time.sleep(0.01)
            assert server._shards[0].breaker_state() == "closed"
            server.put(key0, b"a4")
            assert server.get_async(key0).result() == b"a4"
            stats = server.stats()
            assert stats.breaker_trips >= 1
            assert stats.breaker_recoveries >= 1
            health = server.health()
            assert health.mode == "healthy"
            assert health.breaker_states == ("closed", "closed")
        finally:
            server.close()


# ---------------------------------------------------------------------------
# close() with a stuck worker (satellite 2 regression)
# ---------------------------------------------------------------------------
class TestCloseStuckWorker:
    def test_close_reports_leak_and_fails_futures(
        self, tmp_path, monkeypatch
    ) -> None:
        monkeypatch.setattr("repro.lsm.serving._WORKER_JOIN_TIMEOUT_S", 0.2)
        server = _server(tmp_path)
        blocker = _wedge(server, 0)
        stuck = server._shards[0].submit_probe  # in-flight on the wedge
        queued = server.get_async(_key_on(server, 0))
        leaked = server.close()
        assert leaked == [0]
        with pytest.raises(ClosedStoreError):
            stuck.result(timeout=5.0)
        with pytest.raises(ClosedStoreError):
            queued.result(timeout=5.0)
        assert server.stats().worker_leaks == 1
        assert server.close() == [0]  # idempotent, same report
        blocker.release.set()  # unwedge; late resolve must be harmless

    def test_clean_close_reports_no_leak(self, tmp_path) -> None:
        server = _server(tmp_path)
        server.put(1, b"v")
        assert server.close() == []


# ---------------------------------------------------------------------------
# Health gauges + queue accounting (satellite 3)
# ---------------------------------------------------------------------------
class TestHealthAndQueueAccounting:
    def test_gauges_healthy(self, tmp_path) -> None:
        with _server(tmp_path) as server:
            health = server.health()
            assert health.mode == "healthy"
            assert len(health.shards) == 2
            assert health.breaker_states == ("closed", "closed")
            assert health.workers_alive == (True, True)

    def test_health_reports_dead_worker(self, tmp_path) -> None:
        server = _server(tmp_path, breaker_enabled=False)
        try:
            server._shards[0].inject_worker_fault(RuntimeError("dead"))
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if not server.health().workers_alive[0]:
                    break
                time.sleep(0.01)
            health = server.health()
            assert health.mode == "degraded"
            assert health.workers_alive == (False, True)
        finally:
            server.close()

    def test_queue_waits_and_depth_under_blocked_submitters(
        self, tmp_path
    ) -> None:
        server = _server(tmp_path, queue_policy="block", max_queue_depth=2)
        blocker = None
        try:
            blocker = _wedge(server, 0)
            key = _key_on(server, 0)
            pending = [server.get_async(key) for _ in range(2)]  # queue full
            assert server.health().queue_depths[0] == 2

            barrier = threading.Barrier(4)
            results: list[bytes | None] = []

            def blocked_submit() -> None:
                barrier.wait()
                results.append(server.get_async(key).result())

            submitters = [
                threading.Thread(target=blocked_submit) for _ in range(3)
            ]
            for thread in submitters:
                thread.start()
            barrier.wait()
            time.sleep(0.1)  # all three now blocked on the full queue
            assert server.stats().queue_waits == 3
            blocker.release.set()
            for thread in submitters:
                thread.join(timeout=5.0)
                assert not thread.is_alive()
            for future in pending:
                future.result(timeout=5.0)
            assert len(results) == 3
            stats = server.stats()
            # One blocking submit = one queue_wait, regardless of how
            # many times the condition wait woke spuriously.
            assert stats.queue_waits == 3
            assert stats.max_queue_depth == 2
        finally:
            if blocker is not None:
                blocker.release.set()
            server.close()
