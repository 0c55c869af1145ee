"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so callers
can catch one base class at an API boundary.  Sub-hierarchies mirror the major
subsystems: filter construction/usage, serialization, and the LSM-tree store.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class FilterError(ReproError):
    """Base class for filter-related errors (Rosetta, SuRF, Bloom, ...)."""


class FilterBuildError(FilterError):
    """A filter could not be constructed from the given keys/parameters."""


class FilterQueryError(FilterError):
    """A filter was queried with invalid arguments (bad range, bad key type)."""


class AllocationError(FilterError):
    """A memory-allocation strategy received an infeasible budget or shape."""


class SerializationError(ReproError):
    """A filter or store artifact could not be (de)serialized."""


class CorruptionError(SerializationError):
    """Stored bytes failed checksum/magic validation during deserialization."""


class StoreError(ReproError):
    """Base class for LSM-tree key-value store errors."""


class InvalidOptionsError(StoreError):
    """The store was configured with inconsistent or out-of-range options."""


class ClosedStoreError(StoreError):
    """An operation was attempted on a store that has been closed."""


class TransientIOError(StoreError):
    """A block read failed transiently; retrying the same read may succeed.

    Raised by fault-injecting storage environments (and reserved for real
    backends with retryable errors).  The storage layer's bounded
    retry-with-backoff policy retries exactly this class — permanent
    failures (``OSError``, :class:`CorruptionError`) are never retried.
    """


class ReadOnlyStoreError(StoreError):
    """A write was attempted while the store is in degraded read-only mode.

    A failed background flush/compaction write parks the DB here instead of
    crashing; reads keep working, and :meth:`DB.resume` re-arms writes.
    """


class PowerCutError(StoreError):
    """A simulated power cut interrupted an I/O operation mid-flight.

    Only :class:`repro.lsm.faults.FaultInjectionEnv` raises this; it must
    propagate to the crash harness untouched (never swallowed into the
    background-error state machine), because everything after it models a
    machine that no longer exists.
    """


class ServingError(StoreError):
    """Base class for serving-layer (:class:`ShardedServer`) failures.

    Every caller-visible way the front-end can fail a request is a typed
    subclass of this, so a client can write one ``except ServingError``
    handler (retry, redirect, degrade) and never see a hang or an
    anonymous ``Exception`` from the serving layer.
    """


class DeadlineExceededError(ServingError):
    """A request's deadline expired before the serving layer resolved it.

    Deadlines are enforced at dequeue: an expired request fails fast with
    this error instead of occupying a batch, and a submitter blocked on a
    full queue gives up when its deadline passes.  The request may or may
    not have reached the shard's DB; reads have no side effects and
    writes are rejected before application, so retrying is always safe.
    """


class QueueFullError(ServingError):
    """A submit was shed because the shard queue sat at ``max_queue_depth``.

    Only raised under ``ServingOptions.queue_policy = "shed"`` — the
    load-shedding alternative to blocking the submitter.  The request was
    rejected immediately and had no side effects.
    """


class ShardUnavailableError(ServingError):
    """A write was fast-failed by a shard's open circuit breaker.

    The shard's DB parked in degraded mode.  Writes fail fast until the
    first write after the breaker's back-off finds that ``DB.resume()``
    heals the store; reads keep passing through meanwhile.
    """


class WorkloadError(ReproError):
    """A workload generator received inconsistent parameters."""
