"""The E1 verification matrix across worker processes.

Each :class:`~repro.verify.mixes.MixCase` is one pooled task.  Cases whose
specs are plain registry names travel to the worker directly; cases built
from callables (the mutants, ad-hoc lambdas) cannot be pickled, so stamped
cases travel as their ``(suite_name, index)`` reference and are rebuilt in
the worker from :data:`repro.verify.mixes.SUITES`.  Unstamped callable
cases fall back to in-process execution, preserving row order.

The worker returns the same row dict :func:`repro.verify.mixes.matrix_row`
builds serially, so ``run_matrix(cases, workers=N)`` is byte-identical to
``run_matrix(cases)``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.perf.pool import parallel_map
from repro.verify.mixes import SUITES, MixCase, matrix_row

__all__ = ["run_matrix_parallel"]


def _case_descriptor(case: MixCase, kwargs: dict) -> Optional[tuple]:
    """A picklable recipe for re-running ``case`` in a worker, or None."""
    if case.suite_ref is not None:
        suite, index = case.suite_ref
        if suite in SUITES:
            return ("suite", suite, index, tuple(sorted(kwargs.items())))
    if all(isinstance(spec, str) for spec in case.specs):
        return (
            "specs",
            tuple(case.specs),
            case.expect_consistent,
            case.label,
            case.note,
            tuple(sorted(kwargs.items())),
        )
    return None


def _run_descriptor(descriptor: tuple) -> dict:
    """Worker entry point: rebuild the case, explore, emit its row."""
    if descriptor[0] == "suite":
        _, suite, index, kw_items = descriptor
        case = SUITES[suite]()[index]
    else:
        _, specs, expect_consistent, label, note, kw_items = descriptor
        case = MixCase(list(specs), expect_consistent, label=label, note=note)
    kwargs = dict(kw_items)
    return matrix_row(case, case.run(**kwargs))


def run_matrix_parallel(
    cases: Sequence[MixCase],
    workers: Optional[int] = None,
    **kwargs,
) -> list[dict]:
    """Run the matrix on a process pool; rows in case order.

    Cases that cannot be described picklably run in-process; everything
    else fans out.  Results are spliced back into the original order.
    """
    descriptors = [_case_descriptor(case, kwargs) for case in cases]
    pooled = [d for d in descriptors if d is not None]
    pooled_rows = iter(parallel_map(_run_descriptor, pooled, workers=workers))
    rows = []
    for case, descriptor in zip(cases, descriptors):
        if descriptor is None:
            rows.append(matrix_row(case, case.run(**kwargs)))
        else:
            rows.append(next(pooled_rows))
    return rows

