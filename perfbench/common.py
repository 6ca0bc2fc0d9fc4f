"""Shared pieces of the benchmark: schedules, statistics, the host probe
and the process hygiene that leaves no child running after a run.

Everything here is pure Python over the standard library, so the
benchmark's own logic can be tested without importing ``repro``.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Sequence

#: The checkout root: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for span dumps, inside the checkout.
OUT = ROOT / ".perfbench_out"


class BenchError(RuntimeError):
    """A run that is not the workload it claims, or whose outputs are
    wrong: the benchmark exits non-zero instead of reporting numbers."""


def require_source() -> None:
    """Put the checkout's ``src`` first on ``sys.path``, or fail.

    The benchmark measures the program in its own checkout, never an
    installed copy, so a directory without ``src/repro`` is an error."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# Process hygiene: nothing the benchmark starts outlives it.
# ---------------------------------------------------------------------------
_PR_SET_CHILD_SUBREAPER = 36
#: Longest wait for killed descendants to be reaped.
REAP_TIMEOUT_S = 30.0


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux ``PR_SET_CHILD_SUBREAPER``).

    A daemon's pool workers can outlive the daemon by a moment; as their
    subreaper the benchmark inherits them instead of init, so
    :func:`stop_children` can kill and reap them before it exits."""
    import ctypes

    prctl = ctypes.CDLL(None, use_errno=True).prctl
    if prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise BenchError("cannot become a child subreaper")


#: The watchdog reads process-group ids until its stdin, whose write end
#: only the benchmark holds, reaches end-of-file, then kills the groups.
_WATCHDOG = """\
import os, signal, sys
for line in list(sys.stdin):
    try:
        os.killpg(int(line), signal.SIGKILL)
    except ProcessLookupError:
        pass
"""
_watchdog = None


def spawn(command: list, **kwargs) -> subprocess.Popen:
    """Start a child in a process group of its own that ends with the
    benchmark, however the benchmark ends.

    What the child forks (a daemon's pool workers and their resource
    trackers) shares its group.  A watchdog in a session of its own
    kills the group when the benchmark ends without stopping it: killed,
    even together with its whole process group.  On a normal exit
    :func:`stop_children` kills the watchdog first."""
    global _watchdog
    if _watchdog is None:
        _watchdog = subprocess.Popen(
            [sys.executable, "-c", _WATCHDOG], stdin=subprocess.PIPE,
            stdout=subprocess.DEVNULL, text=True, start_new_session=True,
        )
    proc = subprocess.Popen(command, start_new_session=True, **kwargs)
    _watchdog.stdin.write(f"{proc.pid}\n")
    _watchdog.stdin.flush()
    return proc


def child_pids(parent: int) -> list:
    """Pids whose parent is ``parent``, from ``/proc``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as stat:
                fields = stat.read().rsplit(b")", 1)[1].split()
        except (OSError, IndexError):
            continue  # ended while we looked
        if int(fields[1]) == parent:
            pids.append(int(entry))
    return pids


def stop_children(timeout_s: float = REAP_TIMEOUT_S) -> int:
    """Kill every child still running and reap until none is left.

    With :func:`become_subreaper` in force the children include every
    orphaned descendant, so on return nothing the benchmark started is
    left, zombies included.  Returns the number of processes reaped."""
    me = os.getpid()
    deadline = time.monotonic() + timeout_s
    reaped = 0
    while True:
        for pid in child_pids(me):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return reaped  # no children at all
        if pid:
            reaped += 1
        elif time.monotonic() > deadline:
            raise BenchError("child processes would not end")
        else:
            time.sleep(0.005)


def exit_on_signal(signum, frame) -> None:
    """Signal handler: unwind through ``finally`` blocks, so children
    are stopped when the benchmark is asked to end."""
    raise SystemExit(128 + signum)


def child_env() -> dict:
    """Environment for processes running the program from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.setdefault("PYTHONHASHSEED", "0")
    return env


# ---------------------------------------------------------------------------
# Schedules: a fixed interleave of op types, repeated block by block.
# ---------------------------------------------------------------------------
def run_base(seed: int) -> int:
    """First input seed of a run.  Fresh inputs count up from here, and
    a run uses far fewer than a million, so runs with different
    ``--seed`` values draw disjoint inputs."""
    return 1_000_000 + (seed % 100_000) * 1_000_000
def block_pattern(shares: dict, seed: int) -> list:
    """One block of op types: ``shares`` maps op type -> count per block.

    Each type's ops sit at even spacing through the block, so no type
    clusters, and the block is rotated by the seed.  The shares are
    exact by construction; only the phase depends on the seed."""
    total = sum(shares.values())
    slots: list = []
    for name in sorted(shares):
        count = shares[name]
        slots.extend(
            ((index + 0.5) * total / count, name) for index in range(count)
        )
    pattern = [name for _, name in sorted(slots)]
    shift = seed % total
    return pattern[shift:] + pattern[:shift]


class Schedule:
    """The seeded op schedule: op ``i`` is ``(type, arg)``.

    Op types repeat :func:`block_pattern`; the n-th op of a type gets
    ``draw(type, n)``, the same whatever the interleave or run length."""

    def __init__(self, shares: dict, seed: int, draw) -> None:
        self.shares = dict(shares)
        self.block = block_pattern(shares, seed)
        self._draw = draw
        self._drawn = {name: 0 for name in shares}
        self._ops: list = []

    def __getitem__(self, index: int):
        while len(self._ops) <= index:
            name = self.block[len(self._ops) % len(self.block)]
            self._ops.append((name, self._draw(name, self._drawn[name])))
            self._drawn[name] += 1
        return self._ops[index]


def check_realized(schedule: Schedule, executed: Sequence[str]) -> None:
    """The executed op types must be exactly the schedule, op by op and
    in whole blocks, so the realized shares equal the declared ones."""
    block = schedule.block
    if not executed or len(executed) % len(block):
        raise BenchError(
            f"{len(executed)} ops is not a whole number of "
            f"{len(block)}-op blocks"
        )
    for index, kind in enumerate(executed):
        if kind != block[index % len(block)]:
            raise BenchError(
                f"op {index} ran as {kind!r}, scheduled "
                f"{block[index % len(block)]!r}"
            )


def quantile_position(shares_by_latency: Sequence, q: float) -> tuple:
    """Where quantile ``q`` falls when op types' latency modes do not
    overlap: returns ``(type, rank within that type's mode, distance to
    the nearest boundary between two modes)``.

    ``shares_by_latency`` lists ``(type, share)`` from fastest mode to
    slowest."""
    total = float(sum(share for _, share in shares_by_latency))
    edges = []
    acc = 0.0
    for name, share in shares_by_latency:
        edges.append((name, acc / total, (acc + share) / total))
        acc += share
    inner = [hi for _, _, hi in edges[:-1]]
    distance = min((abs(q - b) for b in inner), default=1.0)
    for name, lo, hi in edges:
        if lo <= q < hi or (hi == 1.0 and q == 1.0):
            return name, (q - lo) / (hi - lo), distance
    raise ValueError(f"quantile {q} outside [0, 1]")


# ---------------------------------------------------------------------------
# Statistics.
# ---------------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("no samples")
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def spread(values: Sequence[float]) -> tuple:
    """``(median, q1, q3, (q3 - q1) / median)`` as the steadiness rule
    takes them (``statistics.quantiles`` with ``n=4``)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def self_times(spans: Sequence[dict]) -> dict:
    """Self time of each span: its duration minus the part of its
    interval that its child spans cover.

    ``spans`` are dicts with ``id``, ``parent``, ``start`` and ``end``;
    returns ``{id: seconds}``."""
    children: dict = {}
    for span in spans:
        if span.get("parent") is not None:
            children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = covered_time(
            [
                (max(start, child["start"]), min(end, child["end"]))
                for child in children.get(span["id"], ())
            ]
        )
        out[span["id"]] = (end - start) - covered
    return out


def covered_time(intervals: Sequence[tuple]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


# ---------------------------------------------------------------------------
# The host-speed probe.
# ---------------------------------------------------------------------------
CALIB_LOOPS = 20_000


def calib_loop(n: int = CALIB_LOOPS) -> int:
    """A fixed pure-Python loop (~1 ms): its time tracks host speed."""
    acc = 0
    for index in range(n):
        acc = (acc * 31 + index) & 0xFFFF
    return acc


class HostProbe:
    """Samples :func:`calib_loop` about once a second through a run."""

    def __init__(self, every_s: float = 1.0) -> None:
        self.every_s = every_s
        self.samples_ms: list = []
        self._next = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        calib_loop()
        self.samples_ms.append((time.perf_counter() - start) * 1e3)

    def maybe_sample(self) -> None:
        now = time.perf_counter()
        if now >= self._next:
            self._next = now + self.every_s
            self.sample()

    def median_ms(self) -> float:
        if not self.samples_ms:
            self.sample()
        return statistics.median(self.samples_ms)


def peak_rss_mb(maxrss_kb: int) -> float:
    """``ru_maxrss`` (KiB on Linux) in MB."""
    return maxrss_kb / 1024.0


def latency_metrics(latencies_s: Sequence[float], wall_s: float) -> dict:
    """The latency/throughput part of the end-to-end metrics, plus p99
    (a run detail: see ``run.py``)."""
    ms = [value * 1e3 for value in latencies_s]
    return {
        "p50_ms": percentile(ms, 50),
        "p90_ms": percentile(ms, 90),
        "p99_ms": percentile(ms, 99),
        "ops_per_s": len(ms) / wall_s,
    }
