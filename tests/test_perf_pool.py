"""The process pool: parallel_map's ordering, fallback and cutover, the
warm pool's lifecycle, chunked scheduling, and per-task timeouts.

:mod:`repro.perf.pool` must preserve the ``parallel_map`` guarantees
(deterministic order, propagating exceptions, serial fallback) while
keeping one pool alive across calls.  The timeout path of
:func:`run_chunked` / :func:`dispatch_one` additionally terminates stuck
workers, so a hung task costs the caller its timeout rather than the
task's full runtime.
"""

from __future__ import annotations

import os
import time
import warnings

import pytest

import repro.perf.pool as pool_mod
from repro.perf.pool import (
    ParallelTimeoutError,
    default_chunk_size,
    dispatch_one,
    get_executor,
    parallel_map,
    pool_stats,
    reset_degrade_warnings,
    resolve_workers,
    run_chunked,
    shutdown_pool,
)


def _square(x):
    return x * x


def _sleep_then_square(x):
    # The highest input sleeps longest, so completion order is the
    # reverse of submission order.
    time.sleep(0.01 * x)
    return x * x


def _boom(x):
    raise ValueError(f"boom on {x}")


def _boom_after_first(x):
    # The first item is the in-process cost probe; later items run on
    # the pool, so the error must cross the process boundary.
    if x > 1:
        raise ValueError(f"boom on {x}")
    return x


def _hang_on_three(x):
    if x == 3:
        time.sleep(30)
    return x


def _burn(n):
    total = 0
    for i in range(250_000):
        total += i % 7
    return total + n


class TestResolveWorkers:
    def test_explicit_wins(self):
        assert resolve_workers(3) == 3

    def test_floor_is_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-5) == 1

    def test_default_is_positive(self):
        assert resolve_workers(None) >= 1


class TestParallelMap:
    def test_empty_input(self):
        assert parallel_map(_square, []) == []

    def test_serial_mode(self):
        # workers=0 is the CLI's "serial" spelling.
        before = pool_stats()["maps"]
        assert parallel_map(_square, [1, 2, 3], workers=0) == [1, 4, 9]
        assert pool_stats()["maps"] == before

    def test_single_worker_runs_serially(self, force_pool):
        before = pool_stats()["maps"]
        assert parallel_map(_square, [3, 4], workers=1) == [9, 16]
        assert pool_stats()["maps"] == before

    def test_pool_results_in_input_order(self, force_pool):
        values = [3, 2, 1, 0]
        assert parallel_map(_sleep_then_square, values, workers=2) == [
            9, 4, 1, 0,
        ]

    def test_unpicklable_fn_falls_back_to_serial(self, force_pool):
        assert parallel_map(lambda x: x + 1, [1, 2], workers=2) == [2, 3]

    def test_unpicklable_item_falls_back_to_serial(self, force_pool):
        items = [iter([1])]  # generators cannot be pickled
        assert parallel_map(next, items, workers=2) == [1]

    def test_task_error_propagates_serial(self):
        with pytest.raises(ValueError, match="boom"):
            parallel_map(_boom, [1], workers=1)

    def test_task_error_propagates_pooled(self, force_pool):
        before = pool_stats()["maps"]
        with pytest.raises(ValueError, match="boom on 2"):
            parallel_map(_boom_after_first, [1, 2], workers=2)
        assert pool_stats()["maps"] == before + 1

    def test_timeout_raises_and_names_a_task(self):
        # parallel_map has no deadline of its own; a bounded pooled map
        # goes through run_chunked, which names the stuck task's index.
        items = [1, 2, 3]
        assert default_chunk_size(len(items), 2) == 1
        with pytest.raises(ParallelTimeoutError, match="#2 exceeded") as err:
            run_chunked(_hang_on_three, items, 2, timeout_s=0.5)
        assert err.value.index == items.index(3)


class TestChunking:
    def test_default_chunk_size_targets_four_chunks_per_worker(self):
        assert default_chunk_size(32, 2) == 4
        assert default_chunk_size(100, 4) == 7  # ceil(100 / 16)
        assert default_chunk_size(1, 8) == 1
        assert default_chunk_size(5, 1) == 2

    def test_results_spliced_in_input_order(self):
        items = list(range(53))  # deliberately not a chunk multiple
        assert run_chunked(_square, items, 2) == [x * x for x in items]

    def test_chunks_follow_default_chunk_size(self):
        before = pool_stats()["chunks"]
        run_chunked(_square, list(range(20)), 2)
        assert pool_stats()["chunks"] == before + 7  # chunks of 3

    def test_empty_items_short_circuit(self):
        assert run_chunked(_square, [], 2) == []

    def test_serial_and_parallel_results_identical(self, force_pool):
        items = list(range(40))
        serial = parallel_map(_square, items, workers=1)
        pooled = parallel_map(_square, items, workers=2)
        assert serial == pooled == [x * x for x in items]


class TestWarmPool:
    def test_pool_persists_across_maps(self, force_pool):
        shutdown_pool()
        parallel_map(_square, list(range(8)), workers=2)
        starts_after_first = pool_stats()["pool_starts"]
        parallel_map(_square, list(range(8)), workers=2)
        parallel_map(_square, list(range(8)), workers=2)
        stats = pool_stats()
        assert stats["pool_starts"] == starts_after_first
        assert stats["pool_reuses"] >= 2

    def test_pool_grows_for_larger_requests(self):
        shutdown_pool()
        small = get_executor(1)
        grown = get_executor(2)
        assert grown is not small
        # A later smaller request reuses the grown pool.
        assert get_executor(1) is grown
        shutdown_pool()

    def test_shutdown_pool_is_idempotent(self, force_pool):
        shutdown_pool()
        shutdown_pool()
        assert parallel_map(_square, [1, 2, 3], workers=2) == [1, 4, 9]


class TestTimeout:
    def test_timeout_names_task_and_terminates_workers(self):
        start = time.perf_counter()
        with pytest.raises(ParallelTimeoutError) as err:
            run_chunked(_hang_on_three, [1, 3], 2, timeout_s=0.5)
        elapsed = time.perf_counter() - start
        assert err.value.index == 1
        assert err.value.timeout_s == 0.5
        # The 30s sleeper was terminated, not joined.
        assert elapsed < 10.0

    def test_pool_recovers_after_timeout(self, force_pool):
        with pytest.raises(ParallelTimeoutError):
            run_chunked(_hang_on_three, [1, 3], 2, timeout_s=0.5)
        assert parallel_map(_square, list(range(6)), workers=2) == [
            x * x for x in range(6)
        ]

    def test_dispatch_one_deadline_terminates_and_recovers(self):
        before = pool_stats()
        start = time.perf_counter()
        with pytest.raises(ParallelTimeoutError) as err:
            dispatch_one(_hang_on_three, 3, timeout_s=0.5, workers=1)
        assert err.value.index == 0
        assert time.perf_counter() - start < 10.0
        assert dispatch_one(_square, 4, timeout_s=5.0, workers=1) == 16
        after = pool_stats()
        assert after["dispatches"] == before["dispatches"] + 2
        assert after["dispatch_degraded"] == before["dispatch_degraded"]


class TestDegradeWarnings:
    def test_unpicklable_fallback_warns_once(self):
        reset_degrade_warnings()
        with pytest.warns(RuntimeWarning, match="degraded to serial"):
            assert parallel_map(lambda x: x + 1, [1, 2], workers=2) == [2, 3]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parallel_map(lambda x: x + 1, [1, 2], workers=2) == [2, 3]
        reset_degrade_warnings()

    def test_serial_mode_never_warns(self):
        reset_degrade_warnings()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parallel_map(lambda x: x + 1, [1, 2], workers=1) == [2, 3]


class TestAdaptiveCutover:
    """Cheap maps stay off the pool entirely (no warning: staying serial
    below the cutover is the optimization working)."""

    def test_cheap_auto_map_skips_the_pool(self, monkeypatch):
        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 4)
        before = pool_stats()["maps"]
        result = parallel_map(_square, list(range(20)), workers=4)
        assert result == [x * x for x in range(20)]
        assert pool_stats()["maps"] == before

    def test_single_core_auto_map_skips_even_the_probe(self, monkeypatch):
        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 1)
        before = pool_stats()["maps"]
        assert parallel_map(_square, [1, 2, 3], workers=4) == [1, 4, 9]
        assert pool_stats()["maps"] == before

    def test_expensive_auto_map_still_pools(self, force_pool):
        # A zero threshold makes every projected cost "expensive", so the
        # probe's head result must splice back in front of pooled tails.
        before = pool_stats()["maps"]
        result = parallel_map(_square, list(range(10)), workers=2)
        assert result == [x * x for x in range(10)]
        assert pool_stats()["maps"] == before + 1


@pytest.mark.perf
@pytest.mark.skipif(
    (os.cpu_count() or 1) <= 2, reason="speedup needs > 2 cores"
)
def test_parallel_at_least_as_fast_as_serial_on_multicore():
    """With the pool warm, fanning CPU-bound work across >= 2 cores must
    not lose to the serial loop (the whole point of the warm pool)."""
    items = list(range(8))
    parallel_map(_burn, items, workers=2)  # warm the pool
    start = time.perf_counter()
    serial = parallel_map(_burn, items, workers=1)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    pooled = parallel_map(_burn, items, workers=2)
    parallel_s = time.perf_counter() - start
    assert pooled == serial
    assert parallel_s <= serial_s * 1.10
