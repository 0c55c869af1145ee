"""Fixtures for the LSM and serving suites."""

import pytest


class VirtualClock:
    """``repro.lsm.serving``'s ``time`` module, which it reads only for
    ``monotonic()`` (deadlines, breaker back-off): time moves only when
    a test advances it, so nothing sleeps and a schedule replays exactly."""

    def __init__(self) -> None:
        self.now = 0.0

    def monotonic(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def virtual_clock(monkeypatch) -> VirtualClock:
    clock = VirtualClock()
    monkeypatch.setattr("repro.lsm.serving.time", clock)
    return clock
