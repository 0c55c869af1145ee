"""Deterministic fault-injection storage environment.

The RocksDB ``FaultInjectionTestFS`` analogue: a :class:`StorageEnv`
subclass that can *provoke*, on demand and reproducibly, every failure the
store claims to survive —

* **transient read errors** (:class:`~repro.errors.TransientIOError`):
  scripted (``fail_next_reads``) or probabilistic (``transient_read_error_rate``),
  exercised against the env's bounded retry policy;
* **permanent read errors** (``fail_file_reads``): every read of one file
  raises ``OSError``, never retried;
* **write errors** (``fail_next_writes``): the next durable write raises
  ``OSError`` with no partial state — the background-error path;
* **bit flips** (``corrupt_file``): seeded on-disk byte flips, caught by the
  per-block CRCs / envelope checksums downstream;
* **torn appends** (``tear_next_append``): the next log append persists only
  a prefix of its frame — the torn-tail case WAL replay must drop;
* **power-cut semantics**: every durable operation is a numbered *sync
  point*; :meth:`schedule_crash` arms a countdown, and when it fires the
  in-flight operation is applied *partially* (seeded), a
  :class:`~repro.errors.PowerCutError` propagates, and :meth:`crash` then
  destroys whatever a real power loss could destroy — any suffix of
  unsynced bytes — before the store is reopened cold.

Determinism: all randomness flows from one ``random.Random(seed)``, so a
failing ``(seed, crash_point)`` pair replays exactly.

Everything injected is tallied in :attr:`injected`, so tests can assert
*counter parity*: every injected fault shows up in ``PerfStats``
(``io_transient_errors``) or the health report — nothing fails silently.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from typing import Callable

from repro.errors import PowerCutError, TransientIOError
from repro.lsm.env import DeviceModel, StorageEnv
from repro.lsm.stats import PerfStats

__all__ = ["FaultInjectionEnv"]


class FaultInjectionEnv(StorageEnv):
    """A :class:`StorageEnv` that injects seeded faults at the I/O boundary.

    Drop-in for the real env via ``DBOptions.env_factory``::

        env_box = []
        options = DBOptions(env_factory=lambda root, device, stats:
                            env_box.append(FaultInjectionEnv(
                                root, device, stats, seed=7)) or env_box[-1])

    (or construct it directly and hand it to the torture harness, which
    owns the wiring).
    """

    def __init__(
        self,
        root: str,
        device: str | DeviceModel = "memory",
        stats: PerfStats | None = None,
        *,
        seed: int = 0,
        transient_read_error_rate: float = 0.0,
    ) -> None:
        super().__init__(root, device, stats)
        self.rng = random.Random(seed)
        #: Probability that any single block read transiently fails.
        self.transient_read_error_rate = transient_read_error_rate
        #: Injection tally, keyed by fault kind (counter-parity checks).
        self.injected: Counter[str] = Counter()
        #: Sync points performed so far (crash-point enumeration).
        self.durable_ops = 0
        self._fail_next_reads = 0
        self._fail_next_writes = 0
        self._fail_permanent: set[str] = set()
        self._tear_next_append = False
        self._crash_countdown: int | None = None
        self._crashed = False
        # Durable length per file: bytes guaranteed to survive a power cut.
        # Files present before injection starts are durable as found.
        self._synced_len: dict[str, int] = {
            name: os.path.getsize(os.path.join(root, name))
            for name in os.listdir(root)
        }

    # ------------------------------------------------------------------
    # Fault scripting
    # ------------------------------------------------------------------
    def fail_next_reads(self, count: int = 1) -> None:
        """Make the next ``count`` block reads raise transient errors."""
        self._fail_next_reads += count

    def fail_next_writes(self, count: int = 1) -> None:
        """Make the next ``count`` durable writes raise ``OSError``.

        Models a full/failing device: the write never happens (no partial
        state), the error propagates, and the store's background-error
        machinery decides what survives.
        """
        self._fail_next_writes += count

    def fail_file_reads(self, name: str) -> None:
        """Make every read of ``name`` raise ``OSError`` (permanent)."""
        self._fail_permanent.add(name)

    def tear_next_append(self) -> None:
        """Persist only a seeded prefix of the next append (torn write)."""
        self._tear_next_append = True

    def corrupt_file(self, name: str, count: int = 1,
                     offset: int | None = None) -> list[int]:
        """Flip ``count`` seeded bytes of ``name`` on disk; returns offsets."""
        path = self.path(name)
        size = os.path.getsize(path)
        offsets = (
            [offset] if offset is not None
            else [self.rng.randrange(size) for _ in range(count)]
        )
        with open(path, "r+b") as handle:
            for position in offsets:
                handle.seek(position)
                byte = handle.read(1)[0]
                handle.seek(position)
                handle.write(bytes([byte ^ (1 << self.rng.randrange(8))]))
        # Drop any read handle so the next read sees the flipped bytes.
        stale = self._handles.pop(name, None)
        if stale is not None:
            stale.close()
        self.injected["bit_flips"] += len(offsets)
        return offsets

    def schedule_crash(self, after_ops: int) -> None:
        """Power-cut at the ``after_ops``-th durable operation from now."""
        if after_ops < 1:
            raise ValueError("after_ops must be >= 1")
        self._crash_countdown = after_ops

    @property
    def crashed(self) -> bool:
        """Whether a scheduled power cut has fired."""
        return self._crashed

    def crash(self) -> None:
        """Apply the power cut: destroy any suffix of unsynced bytes.

        Every file keeps its durable prefix plus a *seeded* fraction of
        whatever was appended after the last sync barrier (a real device
        persists an arbitrary prefix of in-flight writes).  Stray ``.tmp``
        files from interrupted atomic replacements are removed, read and
        append handles dropped — a recovered store must not append through
        a handle to a file the cut unlinked or truncated — and the env is
        left cold for recovery to reopen.
        """
        self.close()
        for name in sorted(os.listdir(self.root)):
            path = os.path.join(self.root, name)
            if name.endswith(".tmp"):
                os.remove(path)
                continue
            synced = self._synced_len.get(name)
            if synced is None:
                # Created and never synced: anything may survive — keep a
                # seeded prefix (possibly empty).
                synced = 0
            size = os.path.getsize(path)
            if size > synced:
                keep = synced + self.rng.randint(0, size - synced)
                with open(path, "r+b") as handle:
                    handle.truncate(keep)
                self._synced_len[name] = keep
        self.injected["crashes"] += 1
        self._crashed = False
        self._crash_countdown = None

    # ------------------------------------------------------------------
    # Crash-point machinery
    # ------------------------------------------------------------------
    def _check_alive(self) -> None:
        if self._crashed:
            raise PowerCutError("I/O on a powered-off store")

    def _sync_point(self, partial_effect: Callable[[], None]) -> None:
        """Count one durable op; fire the scheduled crash if it's due.

        ``partial_effect`` applies the seeded half-finished version of the
        interrupted operation before the :class:`PowerCutError` propagates.
        """
        self._check_alive()
        self.durable_ops += 1
        if self._crash_countdown is None:
            return
        self._crash_countdown -= 1
        if self._crash_countdown > 0:
            return
        self._crashed = True
        partial_effect()
        self.injected["power_cuts"] += 1
        raise PowerCutError(f"simulated power cut at durable op {self.durable_ops}")

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _maybe_fail_read(self, name: str) -> None:
        self._check_alive()
        if name in self._fail_permanent:
            self.injected["permanent_read_errors"] += 1
            raise OSError(f"injected permanent read error on {name}")
        if self._fail_next_reads > 0:
            self._fail_next_reads -= 1
            self.injected["transient_read_errors"] += 1
            raise TransientIOError(f"injected transient read error on {name}")
        if (
            self.transient_read_error_rate
            and self.rng.random() < self.transient_read_error_rate
        ):
            self.injected["transient_read_errors"] += 1
            raise TransientIOError(f"injected transient read error on {name}")

    def _read_block_once(self, name: str, offset: int, size: int) -> bytes:
        self._maybe_fail_read(name)
        return super()._read_block_once(name, offset, size)

    def _read_file_once(self, name: str) -> bytes:
        self._maybe_fail_read(name)
        return super()._read_file_once(name)

    # ------------------------------------------------------------------
    # Writes (each one is a sync point)
    # ------------------------------------------------------------------
    def _maybe_fail_write(self, name: str) -> None:
        self._check_alive()
        if self._fail_next_writes > 0:
            self._fail_next_writes -= 1
            self.injected["write_errors"] += 1
            raise OSError(f"injected write error on {name}")

    def write_file(self, name: str, payload: bytes, sync: bool = True) -> None:
        self._maybe_fail_write(name)

        def partial() -> None:
            cut = self.rng.randint(0, len(payload))
            super(FaultInjectionEnv, self).write_file(name, payload[:cut])
            self._synced_len.setdefault(name, 0)  # nothing of it is durable

        self._sync_point(partial)
        super().write_file(name, payload, sync)
        if sync:
            self._synced_len[name] = len(payload)
        else:
            self._synced_len.setdefault(name, 0)

    def write_file_atomic(
        self, name: str, payload: bytes, fsync: bool = False
    ) -> None:
        self._maybe_fail_write(name)

        def partial() -> None:
            # Crash mid-replacement: the tmp file is torn, the target is
            # untouched — that is the whole point of atomic replacement.
            cut = self.rng.randint(0, len(payload))
            super(FaultInjectionEnv, self).write_file(name + ".tmp", payload[:cut])

        self._sync_point(partial)
        super().write_file_atomic(name, payload, fsync)
        self._synced_len[name] = len(payload)

    def append_file(self, name: str, payload: bytes) -> None:
        self._maybe_fail_write(name)

        def partial() -> None:
            cut = self.rng.randint(0, len(payload))
            super(FaultInjectionEnv, self).append_file(name, payload[:cut])
            self._synced_len.setdefault(name, 0)

        self._sync_point(partial)
        if self._tear_next_append:
            self._tear_next_append = False
            self.injected["torn_appends"] += 1
            payload = payload[: self.rng.randint(0, max(len(payload) - 1, 0))]
        self._synced_len.setdefault(name, 0)
        super().append_file(name, payload)

    def sync_file(self, name: str) -> None:
        def partial() -> None:
            # The barrier itself may or may not have reached the platter.
            if self.rng.random() < 0.5 and os.path.exists(self.path(name)):
                self._synced_len[name] = os.path.getsize(self.path(name))

        self._sync_point(partial)
        if os.path.exists(self.path(name)):
            self._synced_len[name] = os.path.getsize(self.path(name))

    def delete_file(self, name: str) -> None:
        def partial() -> None:
            if self.rng.random() < 0.5:
                super(FaultInjectionEnv, self).delete_file(name)
                self._synced_len.pop(name, None)

        self._sync_point(partial)
        super().delete_file(name)
        self._synced_len.pop(name, None)
