"""Store integrity verification — the ``VerifyChecksum`` analogue.

Walks every live SST file and validates, block by block, everything the
formats can self-check: data-block CRCs and key ordering, index-block
CRCs and fence consistency, filter-envelope decodability, meta/footer
agreement, and cross-run level invariants.  Returns a structured report
rather than raising, so operators can inspect all damage at once.  One
walk, :func:`verify_sst`, serves :meth:`repro.lsm.db.DB.verify` (which the
crash-recovery torture harness runs at every crash point) and
:func:`repro.lsm.repair.repair_store` (which drops the files it faults).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.filters.base import deserialize_filter
from repro.lsm.format import decode_data_block
from repro.lsm.sstable import SSTReader
from repro.lsm.version import Version

__all__ = ["VerificationReport", "verify_sst", "verify_version"]


@dataclass
class VerificationReport:
    """Outcome of an integrity walk."""

    files_checked: int = 0
    blocks_checked: int = 0
    entries_checked: int = 0
    filters_checked: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no corruption or invariant violation was found."""
        return not self.errors

    def add_error(self, context: str, problem: str) -> None:
        """Record one finding."""
        self.errors.append(f"{context}: {problem}")

    def summary(self) -> str:
        """One-paragraph human-readable result."""
        status = "OK" if self.ok else f"{len(self.errors)} ERROR(S)"
        lines = [
            f"integrity check: {status} — {self.files_checked} files, "
            f"{self.blocks_checked} blocks, {self.entries_checked} entries, "
            f"{self.filters_checked} filters"
        ]
        lines.extend(f"  - {error}" for error in self.errors)
        return "\n".join(lines)


def verify_version(version: Version) -> VerificationReport:
    """Verify every run of a :class:`Version` (all levels, newest first)."""
    report = VerificationReport()
    for run in version.all_runs_newest_first():
        verify_sst(run.reader, report)
    _verify_level_invariants(version, report)
    return report


def verify_sst(reader: SSTReader, report: VerificationReport) -> None:
    """Walk one SST block by block, adding what it finds to ``report``."""
    name = reader.meta.name
    report.files_checked += 1

    first_key = previous_key = None
    entry_count = 0
    for block_index in range(reader.num_data_blocks()):
        fence_key, handle = reader._fence_pointers[block_index]  # noqa: SLF001
        try:
            payload = reader._read_block(handle)  # noqa: SLF001
            entries = decode_data_block(payload)
        except ReproError as exc:
            report.add_error(f"{name} block {block_index}", str(exc))
            continue
        report.blocks_checked += 1
        for key, _tag, _value in entries:
            entry_count += 1
            if previous_key is None:
                first_key = key
            elif key <= previous_key:
                report.add_error(
                    f"{name} block {block_index}",
                    f"keys out of order ({previous_key!r} then {key!r})",
                )
            previous_key = key
        if entries and entries[-1][0] != fence_key:
            report.add_error(
                f"{name} block {block_index}",
                "fence pointer does not match the block's last key",
            )
    report.entries_checked += entry_count

    if entry_count != reader.meta.num_entries:
        report.add_error(
            name,
            f"meta advertises {reader.meta.num_entries} entries, "
            f"decoded {entry_count}",
        )
    if entry_count and (first_key, previous_key) != (
        reader.meta.min_key, reader.meta.max_key
    ):
        report.add_error(name, "meta key span does not match the data")

    envelope = b""
    try:
        envelope = reader.filter_block_bytes()
    except ReproError as exc:
        report.add_error(f"{name} filter block", str(exc))
    if envelope:
        try:
            deserialize_filter(envelope)
            report.filters_checked += 1
        except ReproError as exc:
            report.add_error(f"{name} filter block", str(exc))


def _verify_level_invariants(version: Version, report: VerificationReport) -> None:
    """Every level >= 1 must stay one sorted, disjoint run."""
    for level, runs in sorted(version.levels.items()):
        ordered = sorted(runs, key=lambda r: r.reader.meta.min_key)
        for left, right in zip(ordered, ordered[1:]):
            if left.reader.meta.max_key >= right.reader.meta.min_key:
                report.add_error(
                    f"level {level}",
                    f"files {left.name} and {right.name} overlap",
                )
