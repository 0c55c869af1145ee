"""Chaos harness end-to-end: no hangs, no wrong answers, typed failures.

Each defence configuration — no defence, shedding, shedding plus the
breaker, and the defended server with no faults — runs the threaded
harness (``tests/lsm/chaos_harness.py``) once and must finish with zero
violations; the benign run must also be fully available, which proves
the harness itself does not manufacture failures.
"""

from __future__ import annotations

from concurrent.futures import Future

import pytest

from repro.lsm.serving import ShardedServer
from tests.lsm.chaos_harness import (
    _CLIENTS,
    _OPS_PER_CLIENT,
    ChaosOptions,
    run_chaos,
)

_CONFIGS = {
    # Blocking queues, no deadlines, raw errors from degraded shards.
    "no-defense": ChaosOptions(
        queue_policy="block", default_deadline_s=None, breaker_enabled=False
    ),
    "shedding": ChaosOptions(breaker_enabled=False),
    "shedding-breaker": ChaosOptions(),
    "benign": ChaosOptions(inject_faults=False),
}


class TestChaosHarness:
    @pytest.mark.parametrize("name", _CONFIGS)
    def test_run_has_no_violations(self, tmp_path, name) -> None:
        options = _CONFIGS[name]
        report = run_chaos(str(tmp_path / "chaos"), options)
        assert report.violations == []
        assert report.ops == _CLIENTS * _OPS_PER_CLIENT
        assert 0.0 < report.availability <= 1.0
        # Failures, if any, were all typed (the Counter only ever holds
        # allowlisted names — anything else lands in violations).
        assert report.ok_ops + sum(report.typed_failures.values()) == (
            report.ops
        )
        if options.inject_faults:  # the injector actually did something
            assert report.injected["transient_reads"] >= 1

    def test_benign_run_fully_available(self, tmp_path) -> None:
        report = run_chaos(str(tmp_path / "benign"), _CONFIGS["benign"])
        assert report.violations == []
        assert report.availability == 1.0
        assert report.typed_failures == {}
        assert report.injected == {}

    def test_wrong_answer_is_a_violation(self, tmp_path, monkeypatch) -> None:
        """The verifier can fail: a server that answers a get wrongly is
        caught by the client's model."""

        def lying_get_async(self, key, deadline_s=None):
            future: Future = Future()
            future.set_result(b"wrong")
            return future

        monkeypatch.setattr(ShardedServer, "get_async", lying_get_async)
        report = run_chaos(
            str(tmp_path / "lying"), ChaosOptions(inject_faults=False)
        )
        assert report.violations
        assert all("WRONG ANSWER get(" in v for v in report.violations)
        assert report.ok_ops + len(report.violations) == report.ops
