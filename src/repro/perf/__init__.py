"""Parallel execution layer: the process pool the E1 verification
matrix, the Arch85-style DES sweeps and fuzz campaigns fan out over, the
batch kernel, and the bench suite.

Each owner maps its own module-level row function with
:func:`~repro.perf.pool.parallel_map` where its rows are built
(:func:`repro.verify.mixes.run_matrix`,
:mod:`repro.analysis.compare`, :func:`repro.fuzz.campaign.run_campaign`);
the map does the serial fallback, chunking and cutover, so no owner
keeps a second, serial code path.  This package provides:

* :mod:`repro.perf.pool` -- the only module that fans work over worker
  processes: :func:`~repro.perf.pool.parallel_map` (a deterministic map
  with graceful serial fallback) over one warm persistent pool of forked
  workers on direct pipes, with chunked batch scheduling, plus the
  single-job dispatch and per-task timeouts the serve tier uses;
* :mod:`repro.perf.batch` -- the struct-of-arrays batch kernel: N
  independent systems as parallel integer arrays over the compiled
  transition tables (numpy or pure-Python ``array`` backend),
  :func:`~repro.perf.batch.run_batch_specs`, the one path from batch
  specs to result rows, and
  :func:`~repro.perf.batch.batch_protocol_sweep`, which fans one-protocol
  specs over the pool;
* :mod:`repro.perf.bench` -- the ``repro bench`` suite: one
  ``SECTIONS`` table of runners and gates, judged by one evaluator and
  written to ``BENCH_perf.json``.

The package itself re-exports nothing: import the submodule you use
(``from repro.perf.pool import parallel_map``).  Importing the package
must not load the batch kernel on paths that only need the pool.
"""
