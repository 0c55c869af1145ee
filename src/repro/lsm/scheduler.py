"""The maintenance scheduler: every job runs inline, on the caller's thread.

The writer's one dispatcher (``Writer._dispatch_maintenance``) hands each
unit of maintenance work (a flush of the oldest sealed memtable, one
compaction; an ``ingest`` too) to :meth:`InlineScheduler.submit`, which
runs it before returning.  The
store is fully synchronous: a ``PowerCutError`` or a bug's exception
propagates to the writer that triggered the job.

The class stays a seam of its own because a profiler that wraps
``InlineScheduler.submit`` times exactly the store's maintenance work.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["InlineScheduler"]


class InlineScheduler:
    """Synchronous execution on the caller's thread.

    ``submit`` does not catch anything: the writer's ``_run_job`` turns
    ordinary I/O failures into degraded mode, and exceptions
    that must reach the caller (``PowerCutError``, a bug's exception) do.
    """

    def submit(self, name: str, fn: Callable[[], object]) -> None:
        """Run the job ``name`` now."""
        fn()
