"""Warm persistent pool and chunked scheduling contract tests.

:mod:`repro.perf.engine` must preserve the ``parallel_map`` guarantees
(deterministic order, propagating exceptions, per-task timeouts, serial
fallback) while keeping one pool alive across calls.  The timeout path
additionally terminates stuck workers, so a hung task costs the caller
its timeout rather than the task's full runtime.
"""

from __future__ import annotations

import os
import time
import warnings

import pytest

from repro.perf.pool import reset_degrade_warnings
from repro.perf.engine import (
    ParallelTimeoutError,
    default_chunk_size,
    get_executor,
    pool_stats,
    run_chunked,
    shutdown_pool,
)
from repro.perf.pool import ParallelConfig, parallel_map


def _square(x: int) -> int:
    return x * x


def _hang_on_three(x: int) -> int:
    if x == 3:
        time.sleep(30)
    return x


def _burn(n: int) -> int:
    total = 0
    for i in range(250_000):
        total += i % 7
    return total + n


class TestChunking:
    def test_default_chunk_size_targets_four_chunks_per_worker(self):
        assert default_chunk_size(32, 2) == 4
        assert default_chunk_size(100, 4) == 7  # ceil(100 / 16)
        assert default_chunk_size(1, 8) == 1
        assert default_chunk_size(5, 1) == 2

    def test_results_spliced_in_input_order(self):
        items = list(range(53))  # deliberately not a chunk multiple
        assert run_chunked(_square, items, 2) == [x * x for x in items]

    def test_chunk_size_override_respected(self):
        before = pool_stats()["chunks"]
        run_chunked(_square, list(range(20)), 2, chunk_size=5)
        assert pool_stats()["chunks"] == before + 4

    def test_empty_items_short_circuit(self):
        assert run_chunked(_square, [], 2) == []

    def test_serial_and_parallel_results_identical(self):
        items = list(range(40))
        serial = parallel_map(_square, items, ParallelConfig(mode="serial"))
        pooled = parallel_map(
            _square, items, ParallelConfig(workers=2, mode="process")
        )
        assert serial == pooled == [x * x for x in items]


class TestWarmPool:
    def test_pool_persists_across_maps(self):
        shutdown_pool()
        config = ParallelConfig(workers=2, mode="process")
        parallel_map(_square, list(range(8)), config)
        starts_after_first = pool_stats()["pool_starts"]
        parallel_map(_square, list(range(8)), config)
        parallel_map(_square, list(range(8)), config)
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

    def test_shutdown_pool_is_idempotent(self):
        shutdown_pool()
        shutdown_pool()
        assert parallel_map(
            _square, [1, 2, 3], ParallelConfig(workers=2, mode="process")
        ) == [1, 4, 9]


class TestTimeout:
    def test_timeout_names_task_and_terminates_workers(self):
        config = ParallelConfig(workers=2, task_timeout_s=0.5)
        start = time.perf_counter()
        with pytest.raises(ParallelTimeoutError) as err:
            parallel_map(_hang_on_three, [1, 3], config)
        elapsed = time.perf_counter() - start
        assert err.value.index == 1
        assert err.value.timeout_s == 0.5
        # The 30s sleeper was terminated, not joined.
        assert elapsed < 10.0

    def test_pool_recovers_after_timeout(self):
        config = ParallelConfig(workers=2, task_timeout_s=0.5)
        with pytest.raises(ParallelTimeoutError):
            parallel_map(_hang_on_three, [1, 3], config)
        assert parallel_map(
            _square, list(range(6)), ParallelConfig(workers=2)
        ) == [x * x for x in range(6)]


class TestDegradeWarnings:
    def test_unpicklable_fallback_warns_once(self):
        reset_degrade_warnings()
        config = ParallelConfig(workers=2)
        with pytest.warns(RuntimeWarning, match="degraded to serial"):
            assert parallel_map(lambda x: x + 1, [1, 2], config) == [2, 3]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parallel_map(lambda x: x + 1, [1, 2], config) == [2, 3]
        reset_degrade_warnings()

    def test_serial_mode_never_warns(self):
        reset_degrade_warnings()
        config = ParallelConfig(workers=4, mode="serial")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parallel_map(lambda x: x + 1, [1, 2], config) == [2, 3]


class TestAdaptiveCutover:
    """Cheap ``"auto"`` maps stay off the pool entirely (no warning:
    staying serial below the cutover is the optimization working)."""

    def test_cheap_auto_map_skips_the_pool(self, monkeypatch):
        import repro.perf.pool as pool_mod

        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 4)
        before = pool_stats()["maps"]
        result = parallel_map(
            _square, list(range(20)), ParallelConfig(workers=4)
        )
        assert result == [x * x for x in range(20)]
        assert pool_stats()["maps"] == before

    def test_single_core_auto_map_skips_even_the_probe(self, monkeypatch):
        import repro.perf.pool as pool_mod

        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 1)
        before = pool_stats()["maps"]
        assert parallel_map(
            _square, [1, 2, 3], ParallelConfig(workers=4)
        ) == [1, 4, 9]
        assert pool_stats()["maps"] == before

    def test_expensive_auto_map_still_pools(self, monkeypatch):
        import repro.perf.pool as pool_mod

        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 4)
        # A zero threshold makes every projected cost "expensive", so the
        # probe's head result must splice back in front of pooled tails.
        monkeypatch.setattr(pool_mod, "ADAPTIVE_CUTOVER_S", 0.0)
        before = pool_stats()["maps"]
        result = parallel_map(
            _square, list(range(10)), ParallelConfig(workers=2)
        )
        assert result == [x * x for x in range(10)]
        assert pool_stats()["maps"] == before + 1

    def test_process_mode_bypasses_the_probe(self):
        before = pool_stats()["maps"]
        result = parallel_map(
            _square,
            list(range(6)),
            ParallelConfig(workers=2, mode="process"),
        )
        assert result == [x * x for x in range(6)]
        assert pool_stats()["maps"] == before + 1


@pytest.mark.perf
@pytest.mark.skipif(
    (os.cpu_count() or 1) <= 2, reason="speedup needs > 2 cores"
)
def test_parallel_at_least_as_fast_as_serial_on_multicore():
    """With the pool warm, fanning CPU-bound work across >= 2 cores must
    not lose to the serial loop (the whole point of the engine)."""
    items = list(range(8))
    parallel_map(_burn, items, ParallelConfig(workers=2))  # warm the pool
    start = time.perf_counter()
    serial = parallel_map(_burn, items, ParallelConfig(mode="serial"))
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    pooled = parallel_map(_burn, items, ParallelConfig(workers=2))
    parallel_s = time.perf_counter() - start
    assert pooled == serial
    assert parallel_s <= serial_s * 1.10
