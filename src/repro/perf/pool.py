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

Underneath, **one process-wide pool** of forked workers stays alive
across calls:

* each worker is a forked process on one duplex pipe, looping
  ``recv_bytes -> call -> send_bytes((ok, value))``.  A caller checks
  workers out of one thread-safe idle set and talks to them directly, so
  a job passes through no hand-off thread on either side.  Being forked,
  the workers inherit whatever the parent set up before the pool
  started (span wrappers, lowered tables);
* the pool starts lazily on first use and is reused by every later map
  and dispatch (replaced by a larger one if a later call asks for more
  workers, restarted when ``set_fast_tables`` bumps the tables epoch);
* it is shut down via :mod:`atexit` with every worker reaped, and a
  forked child silently drops the inherited handle instead of touching
  its parent's workers;
* items are submitted in **chunks** of roughly
  ``len(items) / (4 * workers)`` so each message carries a batch and the
  per-item pickle/dispatch overhead is amortized, while keeping enough
  chunks in flight for load balancing;
* a worker whose caller stopped waiting -- a timeout, an exception or an
  interrupt -- is **killed** (not joined first) and replaced, never put
  back in the idle set where its late reply would answer the next
  caller.  :func:`run_chunked` and :func:`dispatch_one` take a per-task
  timeout on this, so a hung task costs the caller ``timeout_s``, not the
  task's full runtime; the serve tier's request deadlines ride on it;
* a worker that dies mid-job is replaced as well: :func:`dispatch_one`
  then runs that job in-process (counted in ``dispatch_degraded``) and
  :func:`parallel_map` finishes its map serially.  A return value or
  exception that cannot be pickled comes back as an error, and the
  worker keeps serving.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
import time
import warnings
from typing import TYPE_CHECKING, Callable, Optional, Sequence, TypeVar

from repro.core.transitions import tables_epoch

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

__all__ = [
    "ADAPTIVE_CUTOVER_S",
    "DEFAULT_MAX_WORKERS",
    "ParallelTimeoutError",
    "WorkerLostError",
    "WorkerPool",
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


class WorkerLostError(RuntimeError):
    """A pool worker exited before answering its job, or its pool was
    shut down under the caller."""


def resolve_workers(workers: Optional[int] = None) -> int:
    """The effective worker count: explicit, else cpu-bounded default."""
    if workers is not None:
        return max(1, workers)
    return max(1, min(os.cpu_count() or 1, DEFAULT_MAX_WORKERS))


def default_chunk_size(n_items: int, workers: int) -> int:
    """Items per chunk: ~``CHUNKS_PER_WORKER`` chunks per worker."""
    return max(1, -(-n_items // (CHUNKS_PER_WORKER * max(1, workers))))


# ---------------------------------------------------------------------------
# Workers on direct pipes.
# ---------------------------------------------------------------------------
class _RemoteTraceback(Exception):
    """The worker-side traceback, chained as ``__cause__`` of a re-raised
    worker exception."""

    def __str__(self) -> str:
        return self.args[0]


def _failure(error: BaseException) -> tuple:
    import traceback

    return error, "".join(
        traceback.format_exception(type(error), error, error.__traceback__)
    )


def _dumps(obj: object) -> bytes:
    return pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)


def _serve(conn: Connection, inherited: list) -> None:
    """Worker body: answer each ``(fn, chunk)`` message with
    ``(True, results)`` or ``(False, (exception, traceback))`` until the
    parent hangs up."""
    import signal

    # The parent owns this process's lifetime: Ctrl-C reaches it, and it
    # kills workers whose callers stopped waiting.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Copies of the parent's pipe ends, so that closing one in the parent
    # is an EOF for its worker.
    for other in inherited:
        other.close()
    while True:
        try:
            request = conn.recv_bytes()
        except EOFError:
            return
        try:
            fn, chunk = pickle.loads(request)
            reply = (True, [fn(item) for item in chunk])
        except BaseException as error:  # the caller re-raises it
            reply = (False, _failure(error))
        try:
            data = _dumps(reply)
        except Exception as error:  # the value or exception won't pickle
            data = _dumps((False, _failure(error)))
        try:
            conn.send_bytes(data)
        except OSError:  # the parent is gone
            return


class _Worker:
    """One forked worker: its process and the parent's end of its pipe.
    ``pending`` is set from a job's send until its reply is read."""

    __slots__ = ("process", "conn", "pending")

    def __init__(self, process: BaseProcess, conn: Connection) -> None:
        self.process = process
        self.conn = conn
        self.pending = False

    def send(self, fn: Callable, chunk: list) -> None:
        data = _dumps((fn, chunk))  # a pickling error leaves it idle
        self.pending = True
        try:
            self.conn.send_bytes(data)
        except OSError as error:
            raise WorkerLostError(
                f"pool worker {self.process.pid} is gone"
            ) from error

    def receive(self) -> list:
        """The job's results; re-raises the job's exception."""
        try:
            data = self.conn.recv_bytes()
        except (EOFError, OSError) as error:
            raise WorkerLostError(
                f"pool worker {self.process.pid} exited mid-job"
            ) from error
        self.pending = False
        ok, value = pickle.loads(data)
        if ok:
            return value
        error, remote = value
        error.__cause__ = _RemoteTraceback(remote)
        raise error

    def stop(self, kill: bool) -> None:
        """Reap the worker: killed outright, or let go by closing its
        pipe (the kill is then only a fallback)."""
        if kill:
            self.process.kill()
        self.conn.close()
        self.process.join(None if kill else 1.0)
        if self.process.exitcode is None:
            self.process.kill()
            self.process.join()


class WorkerPool:
    """Forked workers and the idle set callers check them out of.

    Thread-safe: the serve daemon's dispatch threads share one pool.
    Raises ``OSError``/``ValueError`` when processes cannot be forked
    here."""

    def __init__(self, size: int) -> None:
        import multiprocessing

        self.size = size
        self._context = multiprocessing.get_context("fork")
        self._cond = threading.Condition()
        self._idle: list[_Worker] = []
        self._busy: set[_Worker] = set()
        self._closed = False
        try:
            with self._cond:
                for _ in range(size):
                    self._idle.append(self._spawn())
        except BaseException:
            self.close()
            raise

    def _spawn(self) -> _Worker:
        """Fork one worker (called with the condition held)."""
        conn, child_conn = self._context.Pipe()
        inherited = [conn] + [w.conn for w in (*self._idle, *self._busy)]
        process = self._context.Process(
            target=_serve, args=(child_conn, inherited),
            name="repro-pool-worker",
        )
        try:
            process.start()
        finally:
            child_conn.close()
        return _Worker(process, conn)

    def pids(self) -> list[int]:
        with self._cond:
            return sorted(w.process.pid for w in (*self._idle, *self._busy))

    def checkout(self, count: int, timeout_s: Optional[float]) -> list[_Worker]:
        """Up to ``count`` idle workers, waiting at most ``timeout_s`` for
        the first (:class:`ParallelTimeoutError` for task #0 after)."""
        with self._cond:
            if not self._cond.wait_for(
                lambda: self._idle or self._closed, timeout_s
            ):
                raise ParallelTimeoutError(0, timeout_s or 0.0)
            if self._closed:
                raise WorkerLostError("the pool was shut down")
            # Last in, first out: the worker that ran the last job is
            # the warmest.  Serial experiment misses ran about 7% faster
            # on one worker than alternating between two.
            taken = self._idle[-count:]
            del self._idle[-count:]
            self._busy.update(taken)
            return taken

    def checkin(self, workers: list[_Worker]) -> None:
        """Give workers back.  One still owing a reply is killed and
        replaced: its caller stopped waiting, or it died."""
        with self._cond:
            for worker in workers:
                self._busy.discard(worker)
                if worker.pending or self._closed:
                    worker.stop(kill=worker.pending)
                    if not self._closed:
                        self._idle.append(self._spawn())
                        _stats["pool_starts"] += 1
                else:
                    self._idle.append(worker)
            self._cond.notify_all()

    def close(self, wait: bool = False) -> None:
        """Reap every worker.  Checked-out workers are killed (their
        callers find them lost), or with ``wait`` first given back."""
        with self._cond:
            self._closed = True
            if wait:
                self._cond.wait_for(lambda: not self._busy)
            idle, self._idle = self._idle, []
            busy = list(self._busy)
            self._cond.notify_all()
        for worker in busy:
            worker.process.kill()
            worker.process.join()
        for worker in idle:
            worker.stop(kill=False)


# ---------------------------------------------------------------------------
# The process-wide warm pool.
# ---------------------------------------------------------------------------
_pool: Optional[WorkerPool] = None
_pool_pid = os.getpid()
_pool_epoch = -1
_lock = threading.Lock()
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


def get_executor(workers: int) -> WorkerPool:
    """The shared pool, started lazily and reused across calls.

    A pool smaller than ``workers`` is replaced by one sized to the
    larger request (never shrunk: idle workers are cheap, forking is
    not).  Raises ``OSError``/``ValueError`` when worker processes
    cannot run in this environment (restricted sandboxes) -- callers
    fall back to serial execution.
    """
    global _pool, _pool_pid, _pool_epoch, _lock, _atexit_registered
    if _pool_pid != os.getpid():
        # Forked child: the handle, and perhaps a held lock, belong to
        # the parent.  Drop them without touching the parent's workers.
        _pool, _pool_pid, _lock = None, os.getpid(), threading.Lock()
    workers = max(1, workers)
    with _lock:
        if _pool is not None and _pool_epoch != tables_epoch():
            # set_fast_tables was toggled after the workers forked: they
            # froze the old compiled-table setting.  Restart, don't reuse.
            _stats["pool_refreshes"] += 1
            _pool.close()
            _pool = None
        if _pool is not None:
            if _pool.size >= workers:
                _stats["pool_reuses"] += 1
                return _pool
            workers = max(workers, _pool.size)
            _pool.close()
            _pool = None
        _pool = WorkerPool(workers)
        _pool_epoch = tables_epoch()
        _stats["pool_starts"] += 1
        if not _atexit_registered:
            atexit.register(shutdown_pool)
            _atexit_registered = True
        return _pool


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

    Every worker is reaped before this returns; a checked-out worker is
    killed, unless ``wait`` lets its job finish first.  Called
    automatically at interpreter exit; long-lived embedders can call it
    to release the worker processes early.
    """
    global _pool
    if _pool_pid != os.getpid():
        return  # a forked child never stops its parent's workers
    with _lock:
        pool, _pool = _pool, None
    if pool is not None:
        pool.close(wait)


def run_chunked(
    fn: Callable[[T], R],
    items: Sequence[T],
    workers: int,
    *,
    executor: Optional[WorkerPool] = None,
    timeout_s: Optional[float] = None,
) -> list[R]:
    """Map ``fn`` over ``items`` on the warm pool in chunked batches.

    Checks out up to ``workers`` workers and hands each the next chunk
    as it answers.  Results come back in input order regardless of
    completion order, so the output is byte-identical to
    ``[fn(x) for x in items]`` for pure ``fn``.  Worker exceptions
    propagate; :class:`WorkerLostError` propagates for the caller's
    serial fallback.  When no chunk completes within ``timeout_s`` the
    earliest running chunk's first task index is reported via
    :class:`ParallelTimeoutError`; the workers still running are killed
    and replaced.
    """
    from multiprocessing.connection import wait

    items = list(items)
    if not items:
        return []
    pool = executor if executor is not None else get_executor(workers)
    chunk_size = default_chunk_size(len(items), workers)
    chunks = [
        items[start:start + chunk_size]
        for start in range(0, len(items), chunk_size)
    ]
    _stats["maps"] += 1
    _stats["chunks"] += len(chunks)
    taken = pool.checkout(min(workers, len(chunks)), timeout_s)
    results: list = [None] * len(chunks)
    running: dict = {}  # connection -> (worker, chunk index)
    sent = 0
    try:
        for worker in taken:
            worker.send(fn, chunks[sent])
            running[worker.conn] = (worker, sent)
            sent += 1
        while running:
            ready = wait(list(running), timeout_s)
            if not ready:
                # Nothing finished within the window: the earliest
                # running chunk's first task is declared stuck.
                stuck = min(index for _, index in running.values())
                raise ParallelTimeoutError(
                    stuck * chunk_size, timeout_s or 0.0
                )
            for conn in ready:
                worker, index = running.pop(conn)
                results[index] = worker.receive()
                if sent < len(chunks):
                    worker.send(fn, chunks[sent])
                    running[conn] = (worker, sent)
                    sent += 1
    finally:
        pool.checkin(taken)
    return [result for chunk in results for result in chunk]


def dispatch_one(
    fn: Callable[[T], R],
    item: T,
    *,
    timeout_s: Optional[float] = None,
    workers: Optional[int] = None,
) -> R:
    """Run one task on one worker of the warm pool, with a timeout.

    The single-job entry point the serve tier multiplexes requests
    through: the caller checks out one worker and blocks on its pipe,
    so a stuck job raises :class:`ParallelTimeoutError` after
    ``timeout_s`` (counted from the call) and its worker is killed and
    replaced.  A worker that dies mid-job is replaced and the job runs
    in-process (``dispatch_degraded``), as it does where the sandbox
    forbids worker processes -- the result is identical, but the
    deadline is then best-effort only (nothing can terminate the
    caller's own process).  Worker exceptions propagate.
    """
    _stats["dispatches"] += 1
    try:
        pool = get_executor(resolve_workers(workers))
    except (OSError, ValueError):
        pool = None
    if pool is not None:
        _stats["maps"] += 1
        _stats["chunks"] += 1
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        try:
            (worker,) = pool.checkout(1, timeout_s)
            try:
                worker.send(fn, [item])
                remaining = (
                    None if deadline is None
                    else max(0.0, deadline - time.monotonic())
                )
                if not worker.conn.poll(remaining):
                    raise ParallelTimeoutError(0, timeout_s or 0.0)
                return worker.receive()[0]
            finally:
                pool.checkin([worker])
        except WorkerLostError:
            pass
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
        pool = get_executor(workers)
    except (OSError, ValueError):  # restricted sandbox / no fork
        _warn_degrade("pool-start", "process pool unavailable here")
        return head + _serial_map(fn, items)
    try:
        return head + run_chunked(fn, items, workers, executor=pool)
    except WorkerLostError:
        # A worker died (OOM, signal) and has been replaced: redo the
        # rest of the map serially so the caller still gets
        # deterministic, complete results.
        _warn_degrade("broken-pool", "a worker process died mid-map")
        return head + _serial_map(fn, items)
