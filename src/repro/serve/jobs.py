"""Worker-side job bodies for the serve tier (top-level: picklable).

A job crosses the process boundary as a canonical spec string -- the
smallest complete description of the work -- and comes back as the
canonical result payload.  Inside a pool worker everything runs with
``workers=1``: nested maps (the verify matrix, fuzz campaigns) stay
serial rather than forking pools inside pool workers, and the output is
identical either way by the :mod:`repro.perf` determinism contract.
"""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = [
    "execute_payload",
    "execute_batch_payloads",
    "dispatch_job",
    "dispatch_batch_job",
]


def execute_payload(canonical: str) -> dict:
    """Execute one canonical spec string; returns its canonical payload.

    Pure function of its argument (module-level, picklable), usable both
    as the pool-worker body and as a direct in-process fallback."""
    from repro.api import execute
    from repro.serve.protocol import payload_for
    from repro.specs import spec_from_canonical

    spec = spec_from_canonical(canonical)
    result = execute(spec, workers=1)
    return payload_for(spec, result)


def execute_batch_payloads(
    canonicals: Sequence[str], tables_shm: Optional[str] = None
) -> list[dict]:
    """Execute a coalesced population of canonical batch specs; returns
    one payload per spec, in input order.

    The continuous-batching job body: every spec here is batch-lowerable
    (the daemon routes by ``spec.batch_key()``), so the whole population
    merges into a handful of :func:`repro.perf.batch.run_batch_specs`
    kernel invocations instead of one sweep -- one shared-tables attach,
    one population synthesis pass, one SoA run per board mix.  Each
    payload is byte-identical to ``execute_payload(canonical)`` for the
    same spec: rows come from the same kernel on the same schedules, and
    :func:`payload_for` strips the wall-clock and backend columns either
    way, so the payload does not depend on which backend the merged
    population's row count picked."""
    from repro.perf.batch import run_batch_specs
    from repro.serve.protocol import payload_for
    from repro.specs import spec_from_canonical

    if tables_shm is not None:
        from repro.perf.shared import attach_tables

        try:
            attach_tables(tables_shm)
        except Exception:
            pass  # segment gone or unsupported: lower directly below

    specs = [spec_from_canonical(canonical) for canonical in canonicals]
    per_spec_rows = run_batch_specs(specs)
    return [
        payload_for(spec, rows)
        for spec, rows in zip(specs, per_spec_rows)
    ]


def _batch_job(task: tuple) -> list[dict]:
    """Pool-worker shim: :func:`dispatch_one` carries one argument."""
    canonicals, tables_shm = task
    return execute_batch_payloads(canonicals, tables_shm)


def dispatch_job(
    canonical: str,
    deadline_s: Optional[float] = None,
    workers: Optional[int] = None,
) -> dict:
    """Run one job on the warm pool with a per-request deadline.

    Raises :class:`repro.perf.pool.ParallelTimeoutError` when the job
    overruns ``deadline_s`` (the stuck worker is killed and replaced, so
    one runaway request cannot wedge the daemon)."""
    from repro.perf.pool import dispatch_one

    return dispatch_one(
        execute_payload, canonical, timeout_s=deadline_s, workers=workers
    )


def dispatch_batch_job(
    canonicals: Sequence[str],
    deadline_s: Optional[float] = None,
    workers: Optional[int] = None,
    tables_shm: Optional[str] = None,
) -> list[dict]:
    """Run one coalesced population on the warm pool.

    ``deadline_s`` is the *slackest surviving* row deadline (the daemon
    already dropped expired rows at sealing time); a timeout therefore
    fails only rows that were genuinely out of time.  ``tables_shm``
    names the daemon's epoch-published shared-tables segment
    (:func:`repro.perf.shared.tables_for_epoch`) so the worker attaches
    the lowered tables zero-copy instead of re-probing protocols."""
    from repro.perf.pool import dispatch_one, note_batch_dispatch

    note_batch_dispatch(len(canonicals))
    return dispatch_one(
        _batch_job,
        (tuple(canonicals), tables_shm),
        timeout_s=deadline_s,
        workers=workers,
    )
