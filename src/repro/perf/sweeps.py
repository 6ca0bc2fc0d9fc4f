"""The Arch85-style DES experiment sweeps across worker processes.

Each task regenerates or receives its workload deterministically and runs
one timed simulation, so pooled rows are identical to the serial sweeps
in :mod:`repro.analysis.compare` -- only the wall clock changes.

Tasks travel compactly: the shared workload (a trace, or better, a
:func:`synthetic_trace_recipe` tuple the worker regenerates from) is
bound to the task function once via :func:`functools.partial`, so the
chunk protocol pickles it per chunk instead of per item, and the items
themselves are bare spec strings, labels, or floats.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Optional, Sequence

from repro.analysis.compare import (
    DEFAULT_PROTOCOLS,
    HETEROGENEOUS_MIXES,
    comparison_row,
    heterogeneous_row,
    update_vs_invalidate_row,
)
from repro.perf.batch import batchable_specs, run_batch_specs
from repro.perf.pool import parallel_map
from repro.specs import BatchSpec
from repro.workloads.synthetic import SyntheticConfig, SyntheticWorkload
from repro.workloads.trace import Trace

__all__ = [
    "protocol_comparison_parallel",
    "update_vs_invalidate_parallel",
    "heterogeneous_parallel",
    "batch_protocol_sweep",
    "synthetic_trace_recipe",
]


def synthetic_trace_recipe(
    config: SyntheticConfig, seed: int, references: int
) -> tuple:
    """A compact, picklable recipe for a synthetic trace.

    Workers rebuild (and memoize) the trace from this tuple instead of
    unpickling the full reference stream per task."""
    return (
        tuple(sorted(dataclasses.asdict(config).items())),
        seed,
        references,
    )


_TRACE_CACHE: dict[tuple, Trace] = {}


def _resolve_trace(trace_ref) -> Trace:
    """A trace from either a real :class:`Trace` or a recipe tuple."""
    if isinstance(trace_ref, Trace):
        return trace_ref
    trace = _TRACE_CACHE.get(trace_ref)
    if trace is None:
        config_items, seed, references = trace_ref
        config = SyntheticConfig(**dict(config_items))
        trace = SyntheticWorkload(config, seed=seed).trace(references)
        _TRACE_CACHE[trace_ref] = trace
    return trace


def _comparison_task(trace_ref, timed: bool, protocol: str) -> dict:
    return comparison_row(protocol, _resolve_trace(trace_ref), timed)


def _comparison_traced_task(trace_ref, timed: bool, protocol: str) -> dict:
    from repro.analysis.compare import comparison_row_traced

    return comparison_row_traced(protocol, _resolve_trace(trace_ref), timed)


def protocol_comparison_parallel(
    trace: Optional[Trace],
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    timed: bool = True,
    workers: Optional[int] = None,
    traced: bool = False,
    profiler=None,
    recipe: Optional[tuple] = None,
) -> list[dict]:
    """E2 with one pooled task per protocol; rows in protocol order.

    With ``traced=True`` each task returns ``{"row", "events"}`` -- the
    exported per-protocol trace stream, identical to what the serial
    path produces, for order-preserving absorption by the caller.  A
    ``recipe`` (see :func:`synthetic_trace_recipe`) replaces the pickled
    trace on the wire; tasks are then bare protocol spec strings."""
    trace_ref = recipe if recipe is not None else trace
    if trace_ref is None:
        raise ValueError("need a trace or a recipe")
    task_fn = functools.partial(
        _comparison_traced_task if traced else _comparison_task,
        trace_ref,
        timed,
    )
    return parallel_map(
        task_fn, list(protocols), workers=workers, profiler=profiler
    )


def _update_vs_invalidate_task(
    references: int, seed: int, processors: int, p_shared: float
) -> dict:
    return update_vs_invalidate_row(p_shared, references, seed, processors)


def update_vs_invalidate_parallel(
    sharing_levels: Sequence[float],
    references: int = 3000,
    seed: int = 11,
    processors: int = 4,
    workers: Optional[int] = None,
) -> list[dict]:
    """E3 with one pooled task per sharing level (tasks are bare floats;
    the fixed sweep parameters ride on the task function)."""
    task_fn = functools.partial(
        _update_vs_invalidate_task, references, seed, processors
    )
    return parallel_map(task_fn, list(sharing_levels), workers=workers)


def _heterogeneous_task(trace_ref, label: str) -> dict:
    return heterogeneous_row(
        label, HETEROGENEOUS_MIXES[label], _resolve_trace(trace_ref)
    )


def heterogeneous_parallel(
    trace: Optional[Trace],
    workers: Optional[int] = None,
    recipe: Optional[tuple] = None,
) -> list[dict]:
    """E8 with one pooled task per board mix (tasks are mix labels; the
    worker rebuilds the mix from :data:`HETEROGENEOUS_MIXES`)."""
    trace_ref = recipe if recipe is not None else trace
    if trace_ref is None:
        raise ValueError("need a trace or a recipe")
    task_fn = functools.partial(_heterogeneous_task, trace_ref)
    return parallel_map(task_fn, list(HETEROGENEOUS_MIXES), workers=workers)


# ---------------------------------------------------------------------------
# Batch-kernel population sweep.
# ---------------------------------------------------------------------------
def _batch_task(
    backend: Optional[str], tables_shm: Optional[str], spec: BatchSpec
) -> dict:
    """One pooled batch run; the task is a one-protocol
    :class:`~repro.specs.BatchSpec` -- a spec string plus integers,
    nothing object-shaped on the wire.

    ``tables_shm`` names the parent's shared-memory tables segment; the
    worker attaches once (memoized per process) and seeds the lowering
    cache from the mapping, so no worker ever re-derives -- or receives
    a pickled copy of -- the compiled transition tables."""
    if tables_shm is not None:
        from repro.perf.shared import attach_tables

        try:
            attach_tables(tables_shm)
        except Exception:
            pass  # segment gone or unsupported: lower directly below
    return run_batch_specs([spec], backend=backend)[0][0]


def batch_protocol_sweep(
    protocols: Optional[Sequence[str]] = None,
    rows: int = 64,
    events_per_row: int = 100,
    seed: int = 0,
    n_units: int = 2,
    geometry: tuple = (4, 2, 32, 8),
    backend: Optional[str] = None,
    workers: Optional[int] = None,
) -> list[dict]:
    """One batch-kernel population per protocol, fanned over the pool.

    ``protocols`` defaults to every registry spec the lowering accepts
    (:func:`repro.perf.batch.batchable_specs`).  Each task is a
    one-protocol copy of the sweep's spec, run through
    :func:`repro.perf.batch.run_batch_specs` in the worker."""
    if protocols is None:
        protocols = batchable_specs()
    from repro.perf.shared import publish_tables, unlink_tables

    try:
        tables_shm = publish_tables(list(protocols))
    except Exception:
        tables_shm = None  # no shared memory here: workers lower directly
    task_fn = functools.partial(_batch_task, backend, tables_shm)
    tasks = [
        BatchSpec(
            protocols=(protocol,),
            rows=rows,
            events_per_row=events_per_row,
            seed=seed,
            n_units=n_units,
            geometry=tuple(geometry),
        )
        for protocol in protocols
    ]
    try:
        return parallel_map(task_fn, tasks, workers=workers)
    finally:
        if tables_shm is not None:
            unlink_tables(tables_shm)
