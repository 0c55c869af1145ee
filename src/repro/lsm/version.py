"""Level/run metadata — which SST files make up the tree right now.

``Version`` tracks L0 (overlapping files, newest first — each a flushed
memtable) and levels 1 .. ``NUM_LEVELS - 1`` (sorted, non-overlapping
files forming one run per level).  Readers enumerate runs newest-to-oldest
so the merging iterator's priorities implement shadowing; compaction swaps
file sets atomically.  The DB persists a version as the JSON ``MANIFEST``:
``level0`` and each level list their file names.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from repro.errors import StoreError
from repro.lsm.sstable import SSTReader

__all__ = [
    "LEVEL_SIZE_RATIO", "MANIFEST", "NUM_LEVELS", "Run", "Version",
    "level_target_bytes", "manifest_entry_name",
]

#: Levels in the tree, L0 included (RocksDB's default ``num_levels``).
NUM_LEVELS = 7

#: Size ratio between adjacent levels >= 1 (RocksDB's default).
LEVEL_SIZE_RATIO = 10

#: File name of the persisted version.
MANIFEST = "MANIFEST.json"


def level_target_bytes(base: int, level: int) -> int:
    """Capacity target of ``level`` >= 1 when L1's is ``base`` bytes.

    Level 0 has none: its file count triggers it, and its bytes against
    its L1 closure's route it (into L1, or into itself while L1 holds more
    than ``LEVEL_SIZE_RATIO`` times L0).
    """
    if level <= 0:
        raise ValueError("level targets are defined for level >= 1")
    return base * LEVEL_SIZE_RATIO ** (level - 1)


def manifest_entry_name(entry: str | list) -> str:
    """File name of one manifest level entry.

    An entry is a plain file name.  Stores written before levels held
    one run each wrote ``[name, group]`` pairs; the name is read from
    those too.
    """
    return entry if isinstance(entry, str) else entry[0]


@dataclass
class Run:
    """One SST file plus its reader handle and its level."""

    reader: SSTReader
    level: int

    @property
    def name(self) -> str:
        """File name of the SST."""
        return self.reader.meta.name

    @property
    def file_size(self) -> int:
        """Size of the SST file in bytes."""
        return self.reader.meta.file_size


class _LevelIndex:
    """One level's files with their spans laid out for searching.

    ``disjoint`` says the files are sorted and non-overlapping (every level
    >= 1, and an L0 whose files happen not to overlap), so ``min_keys`` and
    ``max_keys`` both ascend and a range is answered by bisecting them.
    """

    __slots__ = ("runs", "min_keys", "max_keys", "disjoint")

    def __init__(self, runs: list[Run]) -> None:
        self.runs = runs
        self.min_keys = [run.reader.meta.min_key for run in runs]
        self.max_keys = [run.reader.meta.max_key for run in runs]
        self.disjoint = all(
            max_key < min_key
            for max_key, min_key in zip(self.max_keys, self.min_keys[1:])
        )


@dataclass
class Version:
    """Mutable view of the current tree shape."""

    level0: list[Run] = field(default_factory=list)  # newest first
    levels: dict[int, list[Run]] = field(default_factory=dict)  # level -> sorted runs
    # Per-level file index, set once by freeze(); never copied by clone().
    _file_index: list[_LevelIndex] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def clone(self) -> "Version":
        """Shallow copy-on-write snapshot (shares the :class:`Run` objects).

        Background installs mutate a clone and swap it in atomically via
        the DB's superversion, so concurrent readers keep iterating a
        frozen shape while flush/compaction edits the copy.
        """
        return Version(
            level0=list(self.level0),
            levels={level: list(runs) for level, runs in self.levels.items()},
        )

    def add_level0(self, run: Run) -> None:
        """Register a freshly flushed L0 file (most recent first)."""
        self.level0.insert(0, run)

    def install_level0(self, replaced: set[str], runs: list[Run]) -> None:
        """Put ``runs`` in L0 where the newest ``replaced`` file sat.

        An intra-L0 merge's output holds exactly its inputs' entries, so
        it takes their place in L0's newest-first order.
        """
        at = next(i for i, run in enumerate(self.level0) if run.name in replaced)
        self.level0 = [run for run in self.level0 if run.name not in replaced]
        self.level0[at:at] = runs

    def install_level(self, level: int, runs: list[Run]) -> None:
        """Replace the whole file set of ``level``.

        Enforces the level invariant: one sorted, non-overlapping run.
        """
        if level < 1:
            raise StoreError("install_level applies to levels >= 1")
        runs = sorted(runs, key=lambda r: r.reader.meta.min_key)
        for left, right in zip(runs, runs[1:]):
            if left.reader.meta.max_key >= right.reader.meta.min_key:
                raise StoreError(
                    f"level {level} files {left.name} and {right.name} overlap"
                )
        self.levels[level] = runs

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def level_runs(self, level: int) -> list[Run]:
        """Runs at ``level`` (sorted by min key for level >= 1)."""
        if level == 0:
            return list(self.level0)
        return list(self.levels.get(level, []))

    def level_size_bytes(self, level: int) -> int:
        """Total file bytes at ``level``."""
        return sum(run.file_size for run in self.level_runs(level))

    def overlap_closure(
        self, level: int, low: bytes | None, high: bytes | None
    ) -> list[Run]:
        """Runs at ``level`` intersecting ``[low, high]`` (inclusive).

        The compaction-input closure: every target-level run a merge over
        ``[low, high]`` must rewrite, and nothing else.  ``None`` bounds
        mean unbounded on that side.  For levels >= 1 (sorted,
        non-overlapping) the result is a contiguous block of the level's
        run list, which is what makes partial-level installs safe: runs
        outside the closure cannot intersect the merge's key footprint.
        """
        selected = []
        for run in self.level_runs(level):
            meta = run.reader.meta
            if low is not None and meta.max_key < low:
                continue
            if high is not None and meta.min_key > high:
                continue
            selected.append(run)
        return selected

    def max_populated_level(self) -> int:
        """Deepest level holding any file (0 when only L0/nothing)."""
        populated = [lvl for lvl, runs in self.levels.items() if runs]
        return max(populated) if populated else 0

    def all_runs_newest_first(self) -> list[Run]:
        """Every run ordered by recency: L0 newest-first, then L1, L2, ..."""
        ordered = list(self.level0)
        for level in sorted(self.levels):
            ordered.extend(self.levels[level])
        return ordered

    def freeze(self) -> None:
        """Build the per-level file index; the shape must not change after.

        Called where a version becomes visible to readers (the DB wraps it
        in a superversion); every later edit goes to a :meth:`clone`.
        Idempotent: a memtable seal republishes the same version.
        """
        if self._file_index is None:
            self._file_index = self._build_file_index()

    def _build_file_index(self) -> list[_LevelIndex]:
        index = [_LevelIndex(self.level0)]
        index.extend(_LevelIndex(self.levels[level]) for level in sorted(self.levels))
        return index

    def runs_for_range(self, low: bytes, high: bytes) -> list[Run]:
        """Runs whose key span intersects ``[low, high]``, newest first.

        L0 newest-first, then levels ascending, files ascending — recency
        order, which is what shadowing reads.  A level that is one sorted,
        disjoint run is bisected; an L0 whose files overlap is scanned.  A
        version not yet frozen answers from an index built for the call.
        """
        index = self._file_index
        if index is None:
            index = self._build_file_index()
        found: list[Run] = []
        for level in index:
            runs, min_keys, max_keys = level.runs, level.min_keys, level.max_keys
            if level.disjoint:
                first = bisect_left(max_keys, low)
                found += runs[first : bisect_right(min_keys, high, first)]
            else:
                found += [
                    run
                    for run, min_key, max_key in zip(runs, min_keys, max_keys)
                    if min_key <= high and max_key >= low
                ]
        return found

    def total_files(self) -> int:
        """Number of live SST files."""
        return len(self.level0) + sum(len(r) for r in self.levels.values())

    def describe(self) -> str:
        """Human-readable tree shape, one line per populated level."""
        lines = [f"L0: {len(self.level0)} files"]
        for level in sorted(self.levels):
            runs = self.levels[level]
            if runs:
                size_mb = sum(r.file_size for r in runs) / (1 << 20)
                lines.append(f"L{level}: {len(runs)} files, {size_mb:.2f} MiB")
        return "\n".join(lines)
