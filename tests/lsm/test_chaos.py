"""Chaos harness end-to-end: no hangs, no wrong answers, typed failures.

Small-scale versions of the runs ``benchmarks/bench_chaos.py`` records:
a faulted run (transient reads + degraded flips + worker crashes under
concurrent mixed traffic) must finish with zero violations, and a benign
run of the same harness must be fully available — which also proves the
harness itself doesn't manufacture failures.
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import replace

from repro.lsm.chaos import ChaosOptions, run_chaos
from repro.lsm.serving import ShardedServer

_BASE = ChaosOptions(
    seed=11,
    clients=3,
    ops_per_client=60,
    num_shards=2,
    preload=150,
    fault_period_s=0.01,
    write_fault_every=3,
    worker_crash_every=5,
)


class TestChaosHarness:
    def test_faulted_run_has_no_violations(self, tmp_path) -> None:
        report = run_chaos(str(tmp_path / "chaos"), _BASE)
        assert report.violations == []
        assert report.ops == _BASE.clients * _BASE.ops_per_client
        assert 0.0 < report.availability <= 1.0
        # The injector actually did something.
        assert report.injected["transient_reads"] >= 1
        # Failures, if any, were all typed (the Counter only ever holds
        # allowlisted names — anything else lands in violations).
        assert report.ok_ops + sum(report.typed_failures.values()) == (
            report.ops
        )

    def test_benign_run_fully_available(self, tmp_path) -> None:
        options = replace(_BASE, inject_faults=False)
        report = run_chaos(str(tmp_path / "benign"), options)
        assert report.violations == []
        assert report.availability == 1.0
        assert report.typed_failures == {}
        assert report.injected == {}

    def test_undefended_run_still_never_hangs(self, tmp_path) -> None:
        """The no-defense config: crashes are permanent, errors raw —
        but containment (wake + fail everything) is not optional."""
        options = replace(
            _BASE,
            queue_policy="block",
            default_deadline_s=None,
            breaker_enabled=False,
            max_worker_restarts=0,
        )
        report = run_chaos(str(tmp_path / "undefended"), options)
        assert report.violations == []
        assert report.ops == _BASE.clients * _BASE.ops_per_client

    def test_wrong_answer_is_a_violation(self, tmp_path, monkeypatch) -> None:
        """The verifier can fail: a server that answers a get wrongly is
        caught by the client's model."""

        def lying_get_async(self, key, deadline_s=None):
            future: Future = Future()
            future.set_result(b"wrong")
            return future

        monkeypatch.setattr(ShardedServer, "get_async", lying_get_async)
        options = replace(_BASE, inject_faults=False, ops_per_client=20)
        report = run_chaos(str(tmp_path / "lying"), options)
        assert report.violations
        assert all("WRONG ANSWER get(" in v for v in report.violations)
        assert report.ok_ops + len(report.violations) == report.ops
