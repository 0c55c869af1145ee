"""Crash-recovery torture tests — the WAL contract, executed.

A small fixed matrix of the harness in :mod:`repro.lsm.torture` (the full
matrix runs in ``benchmarks/torture.py``), plus pinned regression tests
for specific orderings the torture matrix only covers statistically:

* flush persists the manifest *before* truncating the WAL, so a crash
  between the two recovers from one or the other, never neither;
* a torn WAL tail (partial last append) is dropped on replay without
  disturbing earlier acknowledged records;
* an intra-L0 merge (torture's tiny tree never reaches one) recovers its
  inputs or its output at every sync point, never both.
"""

from __future__ import annotations

import hashlib
import os
import shutil

import pytest

from repro.errors import PowerCutError
from repro.lsm import torture
from repro.lsm.db import DB
from repro.lsm.faults import FaultInjectionEnv
from repro.lsm.torture import (
    TortureConfig,
    build_schedule,
    torture_options,
    torture_seed,
)

#: SHA-256 over ``repr(build_schedule(seed, TortureConfig()))`` for seeds
#: 0-19, concatenated: every default schedule, and so every committed
#: crash-point count, stays byte-identical.
_DEFAULT_SCHEDULES_SHA256 = (
    "630a352b39a35b2d699ab5ba100095199b8dbb4685722ce24adc6258e7463666"
)


class RecordingEnv(FaultInjectionEnv):
    """Fault env that also journals every durable operation, in order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ops: list[tuple[int, str, str]] = []

    def _record(self, kind: str, name: str) -> None:
        # durable_ops has not been incremented yet; +1 is this op's index.
        self.ops.append((self.durable_ops + 1, kind, name))

    def write_file(self, name, payload, sync=True):
        self._record("write", name)
        super().write_file(name, payload, sync)

    def write_file_atomic(self, name, payload, fsync=False):
        self._record("atomic", name)
        super().write_file_atomic(name, payload, fsync)

    def append_file(self, name, payload):
        self._record("append", name)
        super().append_file(name, payload)

    def sync_file(self, name):
        self._record("sync", name)
        super().sync_file(name)

    def delete_file(self, name):
        self._record("delete", name)
        super().delete_file(name)


def _opened_with(tmp_path, env_cls, config=None, **env_kwargs):
    """Open a torture-shaped DB on ``env_cls``; returns ``(db, env)``."""
    holder = {}

    def factory(root, device, stats):
        env = env_cls(root, device, stats, **env_kwargs)
        holder["env"] = env
        return env

    config = config if config is not None else TortureConfig()
    db = DB(str(tmp_path), torture_options(config, env_factory=factory))
    return db, holder["env"]


class TestTortureMatrix:
    """Crash at every durable op of a seeded schedule; verify recovery."""

    #: Each seed's crash-point count is exact: another count means the
    #: schedule or the numbering of durable ops moved.
    CRASH_POINTS = {1: 89, 2: 83, 3: 89}

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_no_acknowledged_loss_at_any_crash_point(self, tmp_path, seed):
        report = torture_seed(str(tmp_path), seed, TortureConfig())
        assert report.violations == []
        assert report.crash_points == self.CRASH_POINTS[seed]

    def test_default_schedules_are_pinned(self):
        schedules = "".join(
            repr(build_schedule(seed, TortureConfig())) for seed in range(20)
        )
        digest = hashlib.sha256(schedules.encode()).hexdigest()
        assert digest == _DEFAULT_SCHEDULES_SHA256

    def test_sweep_reports_a_lost_acknowledged_write(self, tmp_path, monkeypatch):
        """The verifier can fail: a recovery that drops one acked key is
        reported, as exactly that."""
        config = TortureConfig(num_ops=12, key_space=24)
        last = torture_seed(str(tmp_path), 1, config).crash_points
        assert last > 0

        class LosesOneWrite(DB):
            """At the last crash point every op but ``close`` is acked;
            the store recovered there reads its first live key as absent."""

            def __init__(self, path, options=None):
                super().__init__(path, options)
                self.lies = (
                    path.endswith(f"-cp{last}")
                    and self.options.env_factory is None
                )

            def get(self, key):
                value = super().get(key)
                if self.lies and value is not None:
                    self.lies = False
                    return None
                return value

        monkeypatch.setattr(torture, "DB", LosesOneWrite)
        report = torture_seed(str(tmp_path), 1, config)
        assert report.crash_points == last
        assert len(report.violations) == 1, report.violations
        assert report.violations[0].startswith(f"seed=1 crash_point={last}: ")
        assert "lost acknowledged write" in report.violations[0]

    def test_recovery_check_reports_a_corrupt_data_block(self, tmp_path):
        """The structural check can fail: a recovered image whose first
        data block has one flipped byte is reported by ``verify``."""
        config = TortureConfig(num_ops=12, key_space=24)
        path = str(tmp_path / "image")
        model = {key: b"v%d" % key for key in range(config.key_space)}
        db = DB(path, torture_options(config))
        for key, value in model.items():
            db.put(key, value)
        db.close()
        assert torture._verify_recovery(path, config, model, {}) == []
        sst = sorted(name for name in os.listdir(path) if name.endswith(".sst"))[0]
        with open(os.path.join(path, sst), "r+b") as handle:
            handle.seek(4)  # inside data block 0
            byte = handle.read(1)
            handle.seek(4)
            handle.write(bytes([byte[0] ^ 0xFF]))
        violations = torture._verify_recovery(path, config, model, {})
        assert violations[0].startswith(f"verify: {sst} block 0: ")
        assert all(v.startswith(f"verify: {sst}") for v in violations)


class TestFlushOrdering:
    """Satellite regression: manifest before WAL truncate, pinned."""

    def _flush_op_indices(self, tmp_path):
        db, env = _opened_with(tmp_path / "probe", RecordingEnv, seed=11)
        for key in range(8):
            db.put(key, b"v%d" % key)
        env.ops.clear()
        db.flush()
        ops = list(env.ops)
        db.close()
        return ops

    def test_manifest_persisted_before_wal_truncate(self, tmp_path):
        ops = self._flush_op_indices(tmp_path)
        sst_writes = [i for i, kind, name in ops
                      if kind == "write" and name.endswith(".sst")]
        manifests = [i for i, kind, name in ops
                     if kind == "atomic" and name == "MANIFEST.json"]
        truncates = [i for i, kind, name in ops
                     if kind == "delete" and name == "wal.log"]
        assert sst_writes and manifests and truncates
        # SST durable, then manifest, then (and only then) the WAL goes.
        assert sst_writes[0] < manifests[0] < truncates[0]

    def test_crash_at_wal_truncate_loses_nothing(self, tmp_path):
        # Locate the WAL-truncate sync point of the flush, deterministically.
        ops = self._flush_op_indices(tmp_path)
        truncate_at = next(i for i, kind, name in ops
                           if kind == "delete" and name == "wal.log")

        path = tmp_path / "crash"
        db, env = _opened_with(path, FaultInjectionEnv, seed=11)
        for key in range(8):
            db.put(key, b"v%d" % key)
        # Recorded indices are absolute; the countdown starts from here.
        env.schedule_crash(truncate_at - env.durable_ops)
        with pytest.raises(PowerCutError):
            db.flush()
        env.crash()

        reopened = DB(str(path), torture_options(TortureConfig()))
        try:
            for key in range(8):
                assert reopened.get(key) == b"v%d" % key
        finally:
            reopened.close()


class TestTornTail:
    def test_torn_last_append_dropped_earlier_records_kept(self, tmp_path):
        db, env = _opened_with(tmp_path, FaultInjectionEnv, seed=5)
        db.put(1, b"first")
        env.tear_next_append()
        db.put(2, b"second")          # frame persists only partially
        assert env.injected["torn_appends"] == 1
        env.crash()                   # power off without flushing

        reopened = DB(str(tmp_path), torture_options(TortureConfig()))
        try:
            assert reopened.get(1) == b"first"     # acked, intact frame
            assert reopened.get(2) is None         # torn tail, dropped
            assert dict(reopened.iterator()) == {1: b"first"}
        finally:
            reopened.close()

    def test_clean_append_after_a_tear_replays_up_to_the_tear(self, tmp_path):
        """The torn frame and the clean one after it go through the same open
        handle; replay still stops at the tear."""
        db, env = _opened_with(tmp_path, FaultInjectionEnv, seed=5)
        db.put(1, b"first")
        intact = env.file_size("wal.log")
        env.tear_next_append()
        db.put(2, b"second")
        assert env.file_size("wal.log") > intact  # a non-empty torn prefix
        db.put(3, b"third")           # clean, right behind the torn bytes
        env.crash()

        reopened = DB(str(tmp_path), torture_options(TortureConfig()))
        try:
            assert dict(reopened.iterator()) == {1: b"first"}
        finally:
            reopened.close()


class TestAppendHandleAcrossCrash:
    """A power cut drops the WAL's open handle with the read handles."""

    def test_crash_drops_the_handle_so_appends_reach_the_new_file(self, tmp_path):
        env = FaultInjectionEnv(str(tmp_path), seed=9)
        env.append_file("wal.log", b"acked")
        env.sync_file("wal.log")
        env.append_file("wal.log", b"in-flight")
        (handle,) = env._append_handles.values()
        env.crash()
        assert handle.closed and not env._append_handles
        assert env.read_file("wal.log").startswith(b"acked")
        # Recovery replaces the log under the same name.  An append through
        # the pre-crash handle would land in the unlinked inode.
        os.remove(env.path("wal.log"))
        env.append_file("wal.log", b"after")
        assert env.read_file("wal.log") == b"after"
        env.close()

    def test_write_crash_recover_write_reopen(self, tmp_path):
        db, env = _opened_with(tmp_path, FaultInjectionEnv, seed=13)
        db.put(1, b"before the cut")  # acknowledged: appended and synced
        env.crash()
        assert not env._append_handles

        recovered = DB(str(tmp_path), torture_options(TortureConfig()))
        recovered.put(2, b"after the cut")
        wal_bytes = b"".join(
            recovered._env.read_file(name)
            for name in recovered._env.list_files() if name.endswith(".log")
        )
        assert b"after the cut" in wal_bytes  # on disk, under a live name
        recovered.kill()              # no flush: only the WAL holds key 2

        reopened = DB(str(tmp_path), torture_options(TortureConfig()))
        try:
            assert reopened.get(1) == b"before the cut"
            assert reopened.get(2) == b"after the cut"
        finally:
            reopened.close()


class TestIntraL0Crash:
    """Crash at every sync point of a flush that sets off an intra-L0 merge.

    The store is pre-built with an L1 far over ten times its L0 and one L0
    file; the flush of a second memtable brings L0 to the trigger (2), so
    the merge writes one L0 file, replaces the manifest and deletes both
    inputs.  Its second memtable overwrites and deletes keys that live in
    L1 and in the first L0 file: the merge keeps its tombstones.
    """

    def _options(self, salt, env_factory=None):
        options = torture_options(
            TortureConfig(filter_salt_seed=salt), env_factory=env_factory
        )
        options.max_bytes_for_level_base = 1 << 20  # L1 never spills
        return options

    def _base(self, path, salt):
        """Returns the model of what the pre-built store holds."""
        model = {}
        db = DB(str(path), self._options(salt))
        for key in range(0, 3000, 2):
            model[key] = b"l1-%d" % key
            db.put(key, model[key])
        db.compact()
        for key in range(1, 3000, 100):
            model[key] = b"first-%d" % key
            db.put(key, model[key])
        db.flush()
        assert len(db.version.level0) == 1
        db.close()
        return model

    @staticmethod
    def _second_memtable(db, model):
        for key in range(0, 3000, 150):
            model[key] = b"second-%d" % key
            db.put(key, model[key])
        for key in (2, 101, 1002):
            model.pop(key, None)
            db.delete(key)

    @pytest.mark.parametrize("salt", [0, 0x5EED_CAFE_F00D])
    def test_recovers_inputs_or_output_at_every_sync_point(self, tmp_path, salt):
        base = tmp_path / "base"
        model = self._base(base, salt)

        # The uncut run names the job's files and counts its sync points.
        shutil.copytree(base, tmp_path / "reference")
        db, env = self._open(tmp_path / "reference", salt, RecordingEnv, 0)
        [first] = [run.name for run in db.version.level0]
        self._second_memtable(db, dict(model))
        start = env.durable_ops
        env.ops.clear()
        db.flush()
        ops = list(env.ops)
        [merged] = [run.name for run in db.version.level0]
        db.close()
        flushed, output = [
            name for _, kind, name in ops
            if kind == "write" and name.endswith(".sst")
        ]
        assert output == merged
        inputs = {first, flushed}
        assert inputs <= {name for _, kind, name in ops if kind == "delete"}
        sync_points = ops[-1][0] - start

        for point in range(1, sync_points + 1):
            path = tmp_path / f"cp{point}"
            shutil.copytree(base, path)
            expected = dict(model)
            db, env = self._open(path, salt, FaultInjectionEnv, point)
            self._second_memtable(db, expected)
            env.schedule_crash(point)
            with pytest.raises(PowerCutError):
                db.flush()
            env.crash()

            recovered = DB(str(path), self._options(salt))
            try:
                level0 = {run.name for run in recovered.version.level0}
                assert not (output in level0 and level0 & inputs), (point, level0)
                assert dict(recovered.iterator()) == expected, point
            finally:
                recovered.close()

    def _open(self, path, salt, env_cls, seed):
        holder = {}

        def factory(root, device, stats):
            holder["env"] = env_cls(root, device, stats, seed=seed)
            return holder["env"]

        return DB(str(path), self._options(salt, factory)), holder["env"]
