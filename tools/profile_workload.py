"""cProfile one phase of a ledger workload: where the calls and the time go.

    python3 tools/profile_workload.py --workload NAME --phase setup|window
                                      [--seed N] [--top N] [--slices N] [--smoke]

The harness every perf PR and re-anchor needs before it touches anything:
it builds the workload's store exactly as the ledger does (``Run.setup``:
put -> WAL -> memtable -> inline flush -> compaction -> filter build) and
either profiles that (``--phase setup``) or reopens the store cold, replays
the seeded prefix unprofiled as the warm-up, and profiles ``--slices`` window
slices (``run_slice``).  It prints cProfile's top rows by self time and by
cumulative time, and function calls per op.  Threads started while the
profile is on (the ``serve-mixed`` clients, which also run the serving
layer's batches) are profiled too and folded into the same table.

Every thread's profile is timed by that thread's CPU clock
(``time.thread_time``), so a thread parked on a lock, a condition or a
future accrues nothing there: with threads, a wall-clock table would rank
the handoffs of the interpreter lock, not the work.
``--phase setup`` adds two footer lines: the bytes each compaction kind
wrote, and the rest (WAL, flush, manifest), each over the user bytes loaded;
then the entries each compaction kind rewrote, and their sum per put.
``--phase window`` adds one: block reads per op and the block-cache hit
rate, from the store's ``PerfStats`` delta over the profiled slices.

cProfile charges every Python call and no native work, so the table ranks
candidates; it is not a measurement.  Claim gains from the ledger
(``benchmarks/ledger/run.py`` pairs + ``compare.py``), never from here.
This tool only reads ``benchmarks/ledger``.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # like the ledger: leave the checkout as found

import argparse
import cProfile
import pstats
import tempfile
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks" / "ledger"))

import run as ledger  # noqa: E402  (puts src/ on the path itself)
from repro.lsm.compaction import Compactor  # noqa: E402

#: Every ``CompactionJob.kind``, in the order the footer prints them.
JOB_KINDS = ("intra-l0", "leveled-l0", "leveled-level", "full")


class ThreadedProfile:
    """One ``cProfile.Profile`` per thread alive while the block runs, each
    timed by its own thread's CPU clock.

    Create it before the client threads start: threads started earlier
    never see the hook.
    """

    def __init__(self) -> None:
        self.profiles: list[cProfile.Profile] = []
        self._on = False
        threading.setprofile(self._thread_hook)

    def _thread_hook(self, frame, event, arg) -> None:
        # Installed in every thread the process starts.  Until the profile
        # is on it does nothing; at the first event after that it replaces
        # itself, in its own thread, with a cProfile of that thread.
        if self._on:
            self._enable()

    def _enable(self) -> None:
        profile = cProfile.Profile(time.thread_time)
        self.profiles.append(profile)
        profile.enable()

    def __enter__(self) -> "ThreadedProfile":
        self._on = True
        self._enable()
        return self

    def __exit__(self, *exc) -> None:
        self.profiles[0].disable()
        self._on = False

    def stats(self) -> pstats.Stats:
        """Merged table; call once every profiled thread has been joined."""
        threading.setprofile(None)
        merged = pstats.Stats(self.profiles[0])
        for profile in self.profiles[1:]:
            merged.add(profile)
        return merged


@contextmanager
def output_by_job_kind(written: Counter, rewritten: Counter):
    """Add each compaction's output bytes to ``written[job.kind]`` and its
    output entries to ``rewritten[job.kind]``."""
    execute = Compactor.execute
    lock = threading.Lock()  # shards of one server may compact on different threads

    def counted(self, job):
        outputs = execute(self, job)
        with lock:
            written[job.kind] += sum(run.file_size for run in outputs)
            rewritten[job.kind] += sum(run.reader.meta.num_entries for run in outputs)
        return outputs

    Compactor.execute = counted
    try:
        yield
    finally:
        Compactor.execute = execute


def write_split(written: Counter, total: int, user: int) -> str:
    """Bytes written per user byte: each job kind, then the rest."""
    parts = [f"{kind} {written[kind] / user:.2f}" for kind in JOB_KINDS]
    rest = total - sum(written.values())
    parts.append(f"rest (WAL, flush, manifest) {rest / user:.2f}")
    return f"bytes written per user byte: {', '.join(parts)} = {total / user:.2f}"


def entry_split(rewritten: Counter, puts: int) -> str:
    """Entries each job kind rewrote, and all of them per put."""
    parts = [f"{kind} {rewritten[kind]}" for kind in JOB_KINDS]
    total = sum(rewritten.values())
    return (
        f"entries rewritten by compaction: {', '.join(parts)} = {total} "
        f"({total / puts:.2f} per put)"
    )


def block_split(blocks, ops: int) -> str:
    """Block reads per op and the block-cache hit rate of a PerfStats delta."""
    lookups = blocks.block_cache_hits + blocks.block_cache_misses
    rate = blocks.block_cache_hits / lookups if lookups else 0.0
    return (
        f"block reads per op {blocks.block_reads / ops:.4f}, block-cache hit "
        f"rate {rate:.3f} ({blocks.block_cache_hits} hits, "
        f"{blocks.block_cache_misses} misses)"
    )


def profile_phase(
    name: str, phase: str, seed: int, smoke: bool, slices: int
) -> tuple[pstats.Stats, int, str]:
    """Returns the merged profile, the ops it covers and its footer: for
    the set-up its write split (bytes, then entries), for the window its
    block split."""
    profiler = ThreadedProfile()
    with tempfile.TemporaryDirectory(prefix="profile-workload-") as work:
        run = ledger.Run(name, seed, smoke, Path(work))
        if phase == "setup":
            written: Counter = Counter()
            rewritten: Counter = Counter()
            with profiler, output_by_job_kind(written, rewritten):
                store, _, _ = run.setup()
            ops = len(run.items)
            footer = write_split(
                written, ledger.perf(store).bytes_written, run.user_bytes(0)
            ) + "\n" + entry_split(rewritten, ops)
        else:
            store, path, _ = run.setup()
            store = run.reopen_cold(store, path)
            workload, model, stream = run.workload, run.model, run.stream
            ledger.run_slice(store, workload, model, stream.slice(workload.prefix_ops))
            ops = 0
            before = ledger.perf(store)
            with profiler:
                for _ in range(slices):
                    piece = ledger.run_slice(
                        store, workload, model, stream.slice(workload.chunk_ops)
                    )
                    ops += len(piece["records"])
            footer = block_split(ledger.perf(store).diff(before), ops)
        store.close()
    return profiler.stats(), ops, footer


def print_table(stats: pstats.Stats, order: str, top: int) -> None:
    stats.sort_stats(order)
    print(f"\ntop {top} by {order} (CPU seconds)")
    print("   ncalls  tottime  cumtime  function")
    for func in stats.fcn_list[:top]:
        _, calls, self_s, cumulative_s, _ = stats.stats[func]
        where = pstats.func_std_string((Path(func[0]).name, *func[1:]))
        print(f"{calls:9d} {self_s:8.3f} {cumulative_s:8.3f}  {where}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ledger.WORKLOADS))
    parser.add_argument("--phase", required=True, choices=("setup", "window"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--top", type=int, default=25, help="rows per table")
    parser.add_argument("--slices", type=int, default=20,
                        help="window slices to profile (--phase window)")
    parser.add_argument("--smoke", action="store_true",
                        help="the ledger's --smoke shape: a fifth of the size")
    args = parser.parse_args(argv)

    stats, ops, footer = profile_phase(
        args.workload, args.phase, args.seed, args.smoke, args.slices
    )
    for order in ("tottime", "cumulative"):
        print_table(stats, order, args.top)
    print(
        f"\n{args.workload} {args.phase}: {ops} ops, {stats.total_calls} function calls "
        f"= {stats.total_calls / ops:.1f} calls per op, {stats.total_tt:.3f} profiled "
        "CPU s"
    )
    print(footer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
