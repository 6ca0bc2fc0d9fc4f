"""Parallel execution layer: fan embarrassingly parallel work (the E1
verification matrix, the Arch85-style DES sweeps, the bench suite) out
across worker processes.

The ROADMAP's north star is a system that runs as fast as the hardware
allows; both heavy artifacts -- exhaustive model checking of every
protocol mix and the multi-protocol timed-simulation sweeps -- are
embarrassingly parallel across cases.  This package provides:

* :mod:`repro.perf.pool` -- the only module that fans work over worker
  processes: :func:`parallel_map` (a deterministic map with graceful
  serial fallback) over one warm persistent pool with chunked batch
  scheduling, plus the per-task timeout machinery the serve tier uses;
* :mod:`repro.perf.matrix` -- the verification matrix across workers,
  byte-identical rows to the serial path;
* :mod:`repro.perf.sweeps` -- the DES experiment sweeps across workers;
* :mod:`repro.perf.batch` -- the struct-of-arrays batch kernel: N
  independent systems as parallel integer arrays over the compiled
  transition tables (numpy or pure-Python ``array`` backend), and
  :func:`~repro.perf.batch.run_batch_specs`, the one path from batch
  specs to result rows;
* :mod:`repro.perf.bench` -- the ``repro bench`` suite: serial-vs-parallel
  wall time, explorer states/sec, batch-kernel throughput, written to
  ``BENCH_perf.json``.
"""

from repro.perf.batch import (
    BatchGeometry,
    BatchPopulation,
    BatchResult,
    NotBatchableError,
    available_backends,
    batchable_specs,
    default_backend,
    make_synthetic_population,
    run_population,
    verify_rows,
)
from repro.perf.bench import run_bench_suite, write_bench_json
from repro.perf.matrix import run_matrix_parallel
from repro.perf.pool import (
    ParallelTimeoutError,
    parallel_map,
    pool_stats,
    resolve_workers,
    run_chunked,
    shutdown_pool,
)
from repro.perf.sweeps import (
    batch_protocol_sweep,
    protocol_comparison_parallel,
    update_vs_invalidate_parallel,
)

__all__ = [
    "ParallelTimeoutError",
    "parallel_map",
    "resolve_workers",
    "run_matrix_parallel",
    "protocol_comparison_parallel",
    "update_vs_invalidate_parallel",
    "batch_protocol_sweep",
    "BatchGeometry",
    "BatchPopulation",
    "BatchResult",
    "NotBatchableError",
    "available_backends",
    "batchable_specs",
    "default_backend",
    "make_synthetic_population",
    "run_population",
    "verify_rows",
    "run_bench_suite",
    "write_bench_json",
    "pool_stats",
    "run_chunked",
    "shutdown_pool",
]
