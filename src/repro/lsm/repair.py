"""Offline store repair — the ``RepairDB`` analogue.

When a store fails to open (corrupt SST, missing file), `repair_store`
salvages what it can: it walks the manifest, verifies each referenced SST
in isolation (its meta block, then :func:`~repro.lsm.verify.verify_sst`'s
block walk), drops the damaged ones from the manifest, and leaves the
store openable again.  Repair is *lossy by design* — dropping a run loses
that run's updates — so it reports exactly which files were sacrificed and
quarantines (renames aside) rather than deletes the damaged ones.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.errors import ReproError, StoreError
from repro.lsm.block_cache import BlockCache
from repro.lsm.env import StorageEnv
from repro.lsm.sstable import SSTReader, read_sst_meta
from repro.lsm.verify import VerificationReport, verify_sst
from repro.lsm.version import MANIFEST, manifest_entry_name

__all__ = ["RepairOutcome", "repair_store"]


@dataclass
class RepairOutcome:
    """What a repair pass did."""

    healthy_files: list[str] = field(default_factory=list)
    dropped_files: list[str] = field(default_factory=list)
    salvaged_entries: int = 0
    quarantined: list[str] = field(default_factory=list)

    @property
    def lossless(self) -> bool:
        """True when nothing had to be dropped."""
        return not self.dropped_files

    def summary(self) -> str:
        """Human-readable outcome."""
        if self.lossless:
            return (
                f"repair: store healthy — {len(self.healthy_files)} files, "
                f"{self.salvaged_entries} entries kept"
            )
        return (
            f"repair: dropped {len(self.dropped_files)} damaged file(s); "
            f"kept {len(self.healthy_files)} files / "
            f"{self.salvaged_entries} entries; "
            f"quarantined: {', '.join(self.quarantined) or 'none'}"
        )


def repair_store(path: str) -> RepairOutcome:
    """Make the store at ``path`` openable again, dropping damaged runs.

    Verifies every SST referenced by the manifest; unreadable or missing
    files are removed from the manifest, and damaged ones renamed to
    ``<name>.quarantine`` for offline inspection.  A store without a
    manifest cannot be repaired (there is no file list to salvage from).
    """
    env = StorageEnv(path, "memory")
    if not env.exists(MANIFEST):
        raise StoreError(f"no manifest at {path}; nothing to repair from")
    manifest = json.loads(env.read_file(MANIFEST))
    outcome = RepairOutcome()

    def file_ok(name: str) -> bool:
        if not env.exists(name):
            outcome.dropped_files.append(name)
            return False
        report = VerificationReport()
        try:
            reader = SSTReader(env, read_sst_meta(env, name), BlockCache(0))
            verify_sst(reader, report)
        except (ReproError, OSError) as exc:
            report.add_error(name, str(exc))
        if not report.ok:
            outcome.dropped_files.append(name)
            try:
                os.rename(env.path(name), env.path(name) + ".quarantine")
                outcome.quarantined.append(name + ".quarantine")
            except OSError:
                pass
            return False
        outcome.healthy_files.append(name)
        outcome.salvaged_entries += report.entries_checked
        return True

    manifest["level0"] = [
        name for name in manifest.get("level0", []) if file_ok(name)
    ]
    repaired_levels: dict[str, list[str]] = {}
    for level, entries in manifest.get("levels", {}).items():
        kept = [
            name for name in map(manifest_entry_name, entries) if file_ok(name)
        ]
        if kept:
            repaired_levels[level] = kept
    manifest["levels"] = repaired_levels
    # Atomic replacement: a crash mid-repair must not leave a torn manifest
    # on top of an already-damaged store.
    env.write_file_atomic(MANIFEST, json.dumps(manifest).encode())
    env.close()
    return outcome
