"""Serving-layer fault tolerance: deadlines, shedding, breaker, failing batches.

The contract under test: every way a request can fail is *typed*, *fast*,
and *accounted* — deadlines are enforced at dequeue; a full queue sheds
or blocks (bounded by the deadline) per ``queue_policy``, and a read one
shard refuses queues nothing on the others; a degraded shard trips its
circuit breaker (writes fail fast, reads pass, a write after the
back-off heals it); a batch that raises fails only its own reads and
strands nothing; and ``close()`` reports a stuck batch instead of
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


class _BlockedBatch:
    """Wedges the batch running on one shard inside ``db.multi_get``
    until released."""

    def __init__(self, shard) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()

        def blocked(keys):
            self.entered.set()
            self.release.wait(timeout=30.0)
            return {key: None for key in keys}

        shard.db.multi_get = blocked


def _wedge(server: ShardedServer, shard_index: int) -> _BlockedBatch:
    """Park a batch in flight on the shard; returns the latch.

    The submitter that finds a shard idle runs its batch itself, so the
    probe is sent from a helper thread, which stays inside ``_execute``
    (as the shard's combiner) until the latch is released; requests
    queued meanwhile form the next batch.
    """
    shard = server._shards[shard_index]
    blocker = _BlockedBatch(shard)
    threading.Thread(
        target=server.get_async,
        args=(_key_on(server, shard_index),),
        daemon=True,
    ).start()
    assert blocker.entered.wait(timeout=5.0)
    shard.submit_probe = shard._inflight[0].sink.future
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
            dict(max_queue_depth=0),
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

    def test_refused_read_queues_no_piece(self, tmp_path) -> None:
        """A read one shard sheds leaves nothing queued on the others: its
        piece for an idle shard neither runs nor counts."""
        server = _server(tmp_path, queue_policy="shed", max_queue_depth=1)
        blocker = None
        try:
            blocker = _wedge(server, 1)
            key0, key1 = _key_on(server, 0), _key_on(server, 1)
            pending = server.get_async(key1)  # fills shard 1's queue
            with pytest.raises(QueueFullError):
                server.multi_get_async([key0, key1])
            shard0 = server._shards[0]
            assert (shard0.stats.multi_requests, shard0.stats.batches) == (0, 0)
            assert shard0.queue_depth() == 0
            blocker.release.set()
            assert pending.result(timeout=5.0) is None
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
# A batch that raises fails only itself
# ---------------------------------------------------------------------------
class TestFailedBatch:
    def test_failing_batch_fails_only_itself(
        self, tmp_path, monkeypatch
    ) -> None:
        """An exception escaping a batch fails that batch's reads; a
        submitter blocked on the full queue wakes, and the shard serves
        what comes next — nothing is stranded, nothing restarts."""
        server = _server(tmp_path, queue_policy="block", max_queue_depth=2)
        shard = server._shards[0]
        key = _key_on(server, 0)
        server.put(key, b"v")
        execute = shard._execute
        calls = []

        def second_batch_raises(batch) -> None:
            calls.append(len(batch))
            if len(calls) == 2:
                raise RuntimeError("batch bug")
            execute(batch)

        monkeypatch.setattr(shard, "_execute", second_batch_raises)
        blocker = None
        try:
            blocker = _wedge(server, 0)
            probe = shard.submit_probe
            failing = [server.get_async(key) for _ in range(2)]  # queue full
            blocked: list[bytes | None] = []
            submitter = threading.Thread(
                target=lambda: blocked.append(server.get_async(key).result())
            )
            submitter.start()
            deadline = time.monotonic() + 5.0
            while server.stats().queue_waits < 1:
                assert time.monotonic() < deadline, "submitter never blocked"
                time.sleep(0.005)
            del shard.db.multi_get  # the wedge's stub: later batches are real
            blocker.release.set()
            assert probe.result(timeout=5.0) is None  # the wedge's answer
            for future in failing:
                with pytest.raises(RuntimeError, match="batch bug"):
                    future.result(timeout=5.0)
            submitter.join(timeout=5.0)
            assert not submitter.is_alive(), "blocked submitter hung"
            assert blocked == [b"v"]
            assert server.get_async(key).result(timeout=5.0) == b"v"
            assert calls[:2] == [1, 2]
            assert server.stats().queue_waits == 1
        finally:
            if blocker is not None:
                blocker.release.set()
            server.close()


    def test_interrupt_stops_combining_and_propagates(
        self, tmp_path, monkeypatch
    ) -> None:
        """An interrupt or exit raised while the caller's thread runs a
        batch reaches that caller; the read fails with it and the shard's
        next submit combines again."""
        server = _server(tmp_path)
        shard = server._shards[0]
        key = _key_on(server, 0)
        server.put(key, b"v")
        execute = shard._execute
        interrupts = [SystemExit("interrupted")]

        def interrupted(batch) -> None:
            if interrupts:
                raise interrupts.pop()
            execute(batch)

        monkeypatch.setattr(shard, "_execute", interrupted)
        try:
            with pytest.raises(SystemExit):
                server.get_async(key)
            assert server.get_async(key).result(timeout=5.0) == b"v"
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

            # The next write to shard 0 finds it degraded: the breaker trips
            # and the write fast-fails typed; shard 1 is untouched; reads
            # on the degraded shard still pass through.
            with pytest.raises(ShardUnavailableError):
                server.put(key0, b"a3")
            assert server._shards[0].breaker_state() == "open"
            server.put(key1, b"b2")
            assert server.get_async(key0).result() == b"a2"

            # The first write after the back-off (0.01 s) is the probe:
            # DB.resume() heals the store, the breaker closes, and the
            # write goes ahead.
            time.sleep(0.05)
            server.put(key0, b"a4")
            assert server._shards[0].breaker_state() == "closed"
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
# close() with a stuck batch
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

    def test_close_waits_for_a_running_batch(self, tmp_path) -> None:
        """close() lets a batch that finishes in time drain what queued
        behind it: every future is answered, nothing is reported."""
        server = _server(tmp_path)
        key = _key_on(server, 0)
        server.put(key, b"v")
        blocker = _wedge(server, 0)
        probe = server._shards[0].submit_probe
        del server._shards[0].db.multi_get  # the next batch is real
        queued = server.get_async(key)
        closed: list[list[int]] = []
        closer = threading.Thread(target=lambda: closed.append(server.close()))
        closer.start()
        deadline = time.monotonic() + 5.0
        while not server._closed:
            assert time.monotonic() < deadline, "close() never started"
            time.sleep(0.005)
        blocker.release.set()
        closer.join(timeout=10.0)
        assert closed == [[]]
        assert probe.result(timeout=5.0) is None
        assert queued.result(timeout=5.0) == b"v"


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

    def test_health_reports_tripped_breaker(self, tmp_path) -> None:
        server = _server(tmp_path)
        try:
            server._shards[0]._trip("test")
            health = server.health()
            assert health.mode == "degraded"
            assert health.breaker_states == ("open", "closed")
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
