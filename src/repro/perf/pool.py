"""The process pool: a warm worker pool and the deterministic map over it.

:func:`parallel_map` is the single primitive the rest of :mod:`repro.perf`
builds on.  Guarantees:

* **deterministic ordering** -- results come back in input order no
  matter which worker finished first;
* **graceful serial fallback** -- on a single-core host, with
  ``workers <= 1``, when the task function or an item cannot be pickled,
  or when the pool itself fails to start (restricted sandboxes), the map
  silently degrades to an in-process loop that produces the same results.
  When the caller explicitly asked for parallelism the degrade is not
  entirely silent: a once-per-reason :class:`RuntimeWarning` explains it;
* **adaptive cutover** -- a map whose projected cost is below
  :data:`ADAPTIVE_CUTOVER_S` stays in-process, because the pool could
  not pay its dispatch overhead back.

Worker exceptions propagate to the caller in both modes, so parallel and
serial execution are observationally equivalent (modulo wall time).

Underneath, **one process-wide pool** stays alive across calls:

* it is started lazily on first use and reused by every subsequent map
  (grown in place if a later call asks for more workers, restarted when
  ``set_fast_tables`` bumps the tables epoch);
* it is shut down via :mod:`atexit`, and a forked child silently drops
  the inherited handle instead of tearing down its parent's workers;
* items are submitted in **chunks** of roughly
  ``len(items) / (4 * workers)`` so each future carries a batch and the
  per-item pickle/dispatch overhead is amortized, while keeping enough
  chunks in flight for load balancing;
* :func:`run_chunked` and :func:`dispatch_one` take a per-task timeout:
  the stuck workers are **terminated** (not joined), so a hung task costs
  the caller ``timeout_s``, not the task's full runtime, and the next map
  starts from a fresh pool.  The serve tier's request deadlines ride on
  this.
"""

from __future__ import annotations

import atexit
import os
import pickle
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, wait
from typing import TYPE_CHECKING, Callable, Optional, Sequence, TypeVar

from repro.core.transitions import tables_epoch

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "ADAPTIVE_CUTOVER_S",
    "DEFAULT_MAX_WORKERS",
    "ParallelTimeoutError",
    "default_chunk_size",
    "dispatch_one",
    "get_executor",
    "note_batch_dispatch",
    "parallel_map",
    "pool_stats",
    "resolve_workers",
    "run_chunked",
    "shutdown_pool",
    "warm_pool",
]

T = TypeVar("T")
R = TypeVar("R")

#: Upper bound on the default worker count; beyond this the matrix's
#: longest single case dominates and extra processes only add start-up
#: cost.
DEFAULT_MAX_WORKERS = 8

#: Chunks submitted per worker: >1 for load balancing (a worker that
#: draws a cheap chunk picks up another), small enough that per-chunk
#: pickling stays negligible.
CHUNKS_PER_WORKER = 4

#: Projected whole-map cost (items x measured per-item seconds) below
#: which a map stays serial: dispatching to the pool costs on the order
#: of a hundred milliseconds of pickling and scheduling, so fanning out
#: cheaper maps than this *loses* wall time (the 0.91x / 0.65x
#: matrix/DES "speedups" the bench used to record).
ADAPTIVE_CUTOVER_S = 0.2


class ParallelTimeoutError(TimeoutError):
    """A pooled task exceeded its per-task timeout."""

    def __init__(self, index: int, timeout_s: float) -> None:
        super().__init__(
            f"parallel task #{index} exceeded {timeout_s:g}s timeout"
        )
        self.index = index
        self.timeout_s = timeout_s


def resolve_workers(workers: Optional[int] = None) -> int:
    """The effective worker count: explicit, else cpu-bounded default."""
    if workers is not None:
        return max(1, workers)
    return max(1, min(os.cpu_count() or 1, DEFAULT_MAX_WORKERS))


def default_chunk_size(n_items: int, workers: int) -> int:
    """Items per chunk: ~``CHUNKS_PER_WORKER`` chunks per worker."""
    return max(1, -(-n_items // (CHUNKS_PER_WORKER * max(1, workers))))


# ---------------------------------------------------------------------------
# The process-wide warm pool.
# ---------------------------------------------------------------------------
_executor: Optional[ProcessPoolExecutor] = None
_executor_workers: int = 0
_executor_pid: Optional[int] = None
_executor_epoch: int = -1
_atexit_registered = False
_stats = {
    "pool_starts": 0,
    "pool_reuses": 0,
    "pool_refreshes": 0,
    "maps": 0,
    "chunks": 0,
    "dispatches": 0,
    "dispatch_degraded": 0,
    "batch_dispatches": 0,
    "batch_dispatch_rows": 0,
}


def pool_stats() -> dict[str, int]:
    """Counters for tests and the bench report (copy; safe to mutate)."""
    return dict(_stats)


def note_batch_dispatch(rows: int) -> None:
    """Record one coalesced serve dispatch of ``rows`` admitted requests
    (surfaced via :func:`pool_stats` and ``repro serve --status``)."""
    _stats["batch_dispatches"] += 1
    _stats["batch_dispatch_rows"] += rows


def get_executor(workers: int) -> ProcessPoolExecutor:
    """The shared pool, started lazily and reused across calls.

    A pool smaller than ``workers`` is replaced by one sized to the
    larger request (never shrunk: idle workers are cheap, forking is
    not).  Raises ``OSError``/``ValueError`` when process pools cannot
    run in this environment (restricted sandboxes) -- callers fall back
    to serial execution.
    """
    global _executor, _executor_workers, _executor_pid, _executor_epoch
    global _atexit_registered
    # Loaded here, not at import: it pulls in multiprocessing, which a
    # map that stays in-process never needs.
    from concurrent.futures import ProcessPoolExecutor

    workers = max(1, workers)
    if _executor is not None and _executor_pid != os.getpid():
        # Forked child: the handle belongs to the parent.  Drop it
        # without shutdown -- a shutdown would poison the parent's pool.
        _executor = None
        _executor_workers = 0
    if _executor is not None and _executor_epoch != tables_epoch():
        # set_fast_tables was toggled after the workers forked: they
        # froze the old compiled-table setting.  Restart, don't reuse.
        _stats["pool_refreshes"] += 1
        shutdown_pool(wait=False)
    if _executor is not None:
        if _executor_workers >= workers:
            _stats["pool_reuses"] += 1
            return _executor
        workers = max(workers, _executor_workers)
        shutdown_pool(wait=False)
    executor = ProcessPoolExecutor(max_workers=workers)
    _executor = executor
    _executor_workers = workers
    _executor_pid = os.getpid()
    _executor_epoch = tables_epoch()
    _stats["pool_starts"] += 1
    if not _atexit_registered:
        atexit.register(shutdown_pool)
        _atexit_registered = True
    return executor


def warm_pool(workers: Optional[int] = None) -> int:
    """Pre-start the persistent worker pool.

    Optional: the pool starts lazily on the first ``parallel_map``
    anyway; warming it moves the fork cost out of the first timed
    region.  Returns the worker count started (or already running)."""
    workers = resolve_workers(workers)
    get_executor(workers)
    return workers


def shutdown_pool(wait: bool = False) -> None:
    """Shut down the warm pool (no-op if none is running).

    Called automatically at interpreter exit; callers invalidate the
    pool explicitly after a :class:`BrokenProcessPool` or a timeout so
    the next map starts fresh.  Long-lived embedders can call it to
    release the worker processes early.
    """
    global _executor, _executor_workers, _executor_pid
    executor, _executor = _executor, None
    _executor_workers = 0
    _executor_pid = None
    if executor is not None:
        executor.shutdown(wait=wait, cancel_futures=True)


def _terminate_workers(executor: ProcessPoolExecutor) -> None:
    """Kill the pool's worker processes outright (timeout recovery).

    ``shutdown(wait=False)`` alone leaves a stuck worker running to
    completion in the background; terminating makes the cost of a hung
    task the timeout, not the task."""
    try:
        processes = list((executor._processes or {}).values())
    except Exception:  # pragma: no cover - implementation detail moved
        processes = []
    for process in processes:
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already dead
            pass


def _run_chunk(fn: Callable[[T], R], chunk: Sequence[T]) -> list[R]:
    """Worker-side body: map one chunk in-process (top-level: picklable)."""
    return [fn(item) for item in chunk]


def run_chunked(
    fn: Callable[[T], R],
    items: Sequence[T],
    workers: int,
    *,
    executor: Optional[ProcessPoolExecutor] = None,
    timeout_s: Optional[float] = None,
) -> list[R]:
    """Map ``fn`` over ``items`` on the warm pool in chunked batches.

    Results come back in input order regardless of completion order, so
    the output is byte-identical to ``[fn(x) for x in items]`` for pure
    ``fn``.  Worker exceptions propagate; ``BrokenProcessPool``
    propagates for the caller's serial fallback.  When no chunk
    completes within ``timeout_s`` the earliest pending task index is
    reported via :class:`ParallelTimeoutError`, the stuck workers are
    terminated and the pool is invalidated.
    """
    items = list(items)
    if not items:
        return []
    if executor is None:
        executor = get_executor(workers)
    chunk_size = default_chunk_size(len(items), workers)
    chunks = [
        items[start:start + chunk_size]
        for start in range(0, len(items), chunk_size)
    ]
    _stats["maps"] += 1
    _stats["chunks"] += len(chunks)
    futures = {
        executor.submit(_run_chunk, fn, chunk): index
        for index, chunk in enumerate(chunks)
    }
    results: dict[int, list[R]] = {}
    pending = set(futures)
    while pending:
        done, pending = wait(
            pending, timeout=timeout_s, return_when=FIRST_COMPLETED
        )
        if not done:
            # Nothing finished within the window: the earliest
            # still-pending chunk's first task is declared stuck.
            stuck_chunk = min(futures[f] for f in pending)
            for future in pending:
                future.cancel()
            _terminate_workers(executor)
            shutdown_pool(wait=False)
            raise ParallelTimeoutError(
                stuck_chunk * chunk_size, timeout_s or 0.0
            )
        for future in done:
            results[futures[future]] = future.result()
    return [
        result for index in range(len(chunks)) for result in results[index]
    ]


def dispatch_one(
    fn: Callable[[T], R],
    item: T,
    *,
    timeout_s: Optional[float] = None,
    workers: Optional[int] = None,
) -> R:
    """Run one task on the warm pool with the per-task timeout machinery.

    The single-job entry point the serve tier multiplexes requests
    through: each job is one chunk of one item, so a stuck job is
    terminated after ``timeout_s`` exactly like a stuck map chunk
    (:class:`ParallelTimeoutError`, workers killed, pool invalidated).
    Environments whose sandbox forbids process pools degrade to an
    in-process call -- the result is identical, but the deadline is then
    best-effort only (nothing can terminate the caller's own process).
    Worker exceptions propagate.
    """
    _stats["dispatches"] += 1
    try:
        executor = get_executor(resolve_workers(workers))
    except (OSError, ValueError):
        executor = None
    if executor is not None:
        from concurrent.futures.process import BrokenProcessPool

        try:
            return run_chunked(
                fn, [item], 1, executor=executor, timeout_s=timeout_s
            )[0]
        except BrokenProcessPool:
            shutdown_pool(wait=False)
    _stats["dispatch_degraded"] += 1
    return fn(item)


# ---------------------------------------------------------------------------
# The map: policy and the serial fallback ladder.
# ---------------------------------------------------------------------------
def _picklable(*objects: object) -> bool:
    try:
        for obj in objects:
            pickle.dumps(obj)
    except Exception:
        return False
    return True


def _serial_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    return [fn(item) for item in items]


#: Degrade reasons already warned about in this process.
_warned: set[str] = set()


def _warn_degrade(key: str, reason: str) -> None:
    """Warn once per process per reason (a long campaign should not
    print the same notice two hundred times)."""
    if key in _warned:
        return
    _warned.add(key)
    warnings.warn(
        f"parallel_map: requested parallelism degraded to serial ({reason})",
        RuntimeWarning,
        stacklevel=4,
    )


def reset_degrade_warnings() -> None:
    """Forget which degrades have warned (tests only)."""
    _warned.clear()


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    workers: Optional[int] = None,
    profiler=None,
) -> list[R]:
    """Map ``fn`` over ``items`` on the warm pool; results in input order.

    ``workers`` defaults to :func:`resolve_workers`; at ``workers <= 1``
    the map runs in-process.  Falls back to a serial in-process map
    whenever the pool cannot help (see module docstring).  Exceptions
    raised by ``fn`` propagate.  An optional
    :class:`repro.obs.profile.Profiler` times the whole fan-out.
    """
    workers = resolve_workers(workers)
    items = list(items)
    if profiler is not None:
        with profiler.region(
            "pool.map",
            items=len(items),
            workers=min(workers, max(1, len(items))),
        ):
            return _map(fn, items, workers)
    return _map(fn, items, workers)


def _map(fn: Callable[[T], R], items: list[T], workers: int) -> list[R]:
    if not items:
        return []
    workers = min(workers, len(items))
    if workers <= 1:
        return _serial_map(fn, items)
    if not _picklable(fn, *items):
        _warn_degrade("pickle", "task or items not picklable")
        return _serial_map(fn, items)
    # Adaptive cutover: a map only goes to the pool when the work can
    # plausibly pay the dispatch overhead back.  Without a second core
    # the pool can never win; otherwise run the first item in-process as
    # a cost probe and stay serial when the whole map projects below the
    # cutover.
    if (os.cpu_count() or 1) < 2:
        return _serial_map(fn, items)
    start = time.perf_counter()
    head = [fn(items[0])]
    per_item_s = time.perf_counter() - start
    if per_item_s * len(items) < ADAPTIVE_CUTOVER_S:
        return head + _serial_map(fn, items[1:])
    items = items[1:]
    workers = min(workers, len(items))
    try:
        executor = get_executor(workers)
    except (OSError, ValueError):  # restricted sandbox / no semaphores
        _warn_degrade("pool-start", "process pool unavailable here")
        return head + _serial_map(fn, items)
    from concurrent.futures.process import BrokenProcessPool

    try:
        return head + run_chunked(fn, items, workers, executor=executor)
    except BrokenProcessPool:
        # A worker died (OOM, signal): invalidate the warm pool and redo
        # the rest of the map serially so the caller still gets
        # deterministic, complete results.
        shutdown_pool(wait=False)
        _warn_degrade("broken-pool", "a worker process died mid-map")
        return head + _serial_map(fn, items)
