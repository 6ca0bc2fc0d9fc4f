"""A deterministic, fault-tolerant process-pool map.

:func:`parallel_map` is the single primitive the rest of :mod:`repro.perf`
builds on.  Guarantees:

* **deterministic ordering** -- results come back in input order no
  matter which worker finished first;
* **per-task timeouts** -- a stuck case raises
  :class:`ParallelTimeoutError` naming the offending task instead of
  hanging the whole run;
* **graceful serial fallback** -- on a single-core host, with
  ``workers <= 1``, when the task function or an item cannot be pickled,
  or when the pool itself fails to start (restricted sandboxes), the map
  silently degrades to an in-process loop that produces the same results.
  When the caller explicitly asked for parallelism the degrade is not
  entirely silent: a once-per-reason :class:`RuntimeWarning` explains it.

Worker exceptions propagate to the caller in both modes, so parallel and
serial execution are observationally equivalent (modulo wall time).

Since the warm-pool rework the actual scheduling lives in
:mod:`repro.perf.engine`: one persistent process pool shared across
calls, fed in chunked batches.  This module keeps the policy -- mode
resolution, picklability probing, and the serial fallback ladder.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import time
import warnings
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Optional, Sequence, TypeVar

from repro.perf.engine import (
    ADAPTIVE_CUTOVER_S,
    DEFAULT_MAX_WORKERS,
    ParallelTimeoutError,
    get_executor,
    resolve_workers,
    run_chunked,
    shutdown_pool,
)

__all__ = [
    "ParallelConfig",
    "ParallelTimeoutError",
    "parallel_map",
    "resolve_workers",
    "shutdown_pool",
]

T = TypeVar("T")
R = TypeVar("R")


@dataclasses.dataclass
class ParallelConfig:
    """Knobs for :func:`parallel_map`.

    mode:
        ``"auto"`` (pool when it can help, serial otherwise),
        ``"serial"`` (never fork), or ``"process"`` (insist on the pool;
        still falls back if the pool cannot run the work at all).
    chunk_size:
        Items per submitted batch; default ``None`` lets the engine pick
        ``~len(items) / (4 * workers)``.
    """

    workers: Optional[int] = None
    mode: str = "auto"
    task_timeout_s: Optional[float] = None
    chunk_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode not in ("auto", "serial", "process"):
            raise ValueError(f"unknown parallel mode {self.mode!r}")

    @property
    def effective_workers(self) -> int:
        return resolve_workers(self.workers)


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
    config: Optional[ParallelConfig] = None,
    profiler=None,
) -> list[R]:
    """Map ``fn`` over ``items`` on a process pool; results in input order.

    Falls back to a serial in-process map whenever the pool cannot help
    (see module docstring).  Exceptions raised by ``fn`` propagate; a task
    overrunning ``config.task_timeout_s`` raises
    :class:`ParallelTimeoutError`.  An optional
    :class:`repro.obs.profile.Profiler` times the whole fan-out.
    """
    config = config or ParallelConfig()
    items = list(items)
    if profiler is not None:
        with profiler.region(
            "pool.map",
            items=len(items),
            workers=min(config.effective_workers, max(1, len(items))),
            mode=config.mode,
        ):
            return _map(fn, items, config)
    return _map(fn, items, config)


def _map(
    fn: Callable[[T], R],
    items: list[T],
    config: ParallelConfig,
) -> list[R]:
    if not items:
        return []
    workers = min(config.effective_workers, len(items))
    if config.mode == "serial" or workers <= 1:
        return _serial_map(fn, items)
    if not _picklable(fn, *items):
        _warn_degrade("pickle", "task or items not picklable")
        return _serial_map(fn, items)
    head: list[R] = []
    if config.mode == "auto" and config.task_timeout_s is None:
        # Adaptive cutover: an "auto" map only goes to the pool when the
        # work can plausibly pay the dispatch overhead back.  Without a
        # second core the pool can never win; otherwise run the first
        # item in-process as a cost probe and stay serial when the whole
        # map projects below the cutover.  Explicit ``mode="process"``
        # and per-task timeouts (which need the pool's termination
        # machinery) bypass the probe.
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
    try:
        return head + run_chunked(
            fn,
            items,
            workers,
            executor=executor,
            timeout_s=config.task_timeout_s,
            chunk_size=config.chunk_size,
        )
    except BrokenProcessPool:
        # A worker died (OOM, signal): invalidate the warm pool and redo
        # the whole map serially so the caller still gets deterministic,
        # complete results.
        shutdown_pool(wait=False)
        _warn_degrade("broken-pool", "a worker process died mid-map")
        return head + _serial_map(fn, items)
