"""Canned verification configurations: the experiment matrix behind the
compatibility claims (experiment E1 of DESIGN.md).

:func:`class_member_mixes` -- combinations of MOESI-class members; every
one must verify consistent.

:func:`homogeneous_foreign` -- Write-Once / Illinois / Firefly among
themselves (with the BS adaptation); consistent.

:func:`incompatible_mixes` -- naive foreign-protocol + class-member mixes;
each must produce at least one violation (a protocol gap or a genuine
stale-data inconsistency), reproducing the paper's warning that those
protocols need further definition/adaptation before mixing.

:func:`run_matrix` executes a list of (specs, expectation) entries and
returns per-row results for the report and the benchmarks.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Optional, Sequence

from repro.verify.explorer import ExplorationResult, explore
from repro.verify.mutations import ALL_MUTANTS

__all__ = [
    "MixCase",
    "SUITES",
    "class_member_mixes",
    "homogeneous_foreign",
    "incompatible_mixes",
    "mutant_mixes",
    "case_row",
    "matrix_row",
    "run_matrix",
]


@dataclasses.dataclass
class MixCase:
    """One verification row: protocols to mix and the expected outcome.

    Every case in :data:`SUITES` pickles (its specs are registry names or
    module-level :func:`functools.partial` factories), so the matrix can
    ship cases to worker processes as they are.
    """

    specs: Sequence
    expect_consistent: bool
    label: Optional[str] = None
    note: str = ""

    def run(self, **kwargs) -> ExplorationResult:
        return explore(self.specs, label=self.label, **kwargs)


def class_member_mixes() -> list[MixCase]:
    """Mixes drawn from MOESI-class members: all must be consistent."""
    return [
        MixCase(["moesi", "moesi"], True, note="homogeneous preferred"),
        MixCase(
            ["moesi-scripted", "moesi-scripted"],
            True,
            note="all Table-1/2 choices, both caches",
        ),
        MixCase(
            ["full-class", "full-class"],
            True,
            note="full relaxation closure, both caches",
        ),
        MixCase(
            ["full-class", "full-class", "full-class"],
            True,
            note="full relaxation closure, three caches",
        ),
        MixCase(["moesi-invalidate", "moesi-update"], True),
        MixCase(["berkeley", "berkeley"], True, note="Table 3 homogeneous"),
        MixCase(["dragon", "dragon"], True, note="Table 4 homogeneous"),
        MixCase(["berkeley", "dragon"], True, note="paper section 4.1-4.2"),
        MixCase(["moesi-scripted", "berkeley"], True),
        MixCase(["moesi-scripted", "dragon"], True),
        MixCase(["moesi", "write-through"], True),
        MixCase(["moesi", "write-through-alloc"], True),
        MixCase(["moesi", "non-caching"], True),
        MixCase(["moesi", "non-caching-bc"], True),
        MixCase(
            ["moesi-scripted", "berkeley", "write-through"],
            True,
            note="copy-back + ownership + write-through coexistence",
        ),
        MixCase(
            ["dragon", "write-through", "non-caching"],
            True,
            note="update protocol + simple boards",
        ),
        MixCase(
            ["full-class", "berkeley", "non-caching"],
            True,
            note="closure against fixed members",
        ),
    ]


def homogeneous_foreign() -> list[MixCase]:
    """BS-adapted foreign protocols among themselves: consistent."""
    return [
        MixCase(["write-once", "write-once"], True, note="Table 5"),
        MixCase(["illinois", "illinois"], True, note="Table 6"),
        MixCase(["firefly", "firefly"], True, note="Table 7"),
        MixCase(["illinois", "illinois", "illinois"], True),
        MixCase(["write-once", "write-once", "write-once"], True),
    ]


def incompatible_mixes() -> list[MixCase]:
    """Naive foreign/class mixes: the explorer must find the holes."""
    return [
        MixCase(
            ["write-once", "moesi"],
            False,
            note="Write-Once's S means memory-consistent; stale memory "
            "after its write-through-to-E against a MOESI owner",
        ),
        MixCase(
            ["illinois", "moesi"],
            False,
            note="undefined snoop behaviour for broadcast writes (col 8)",
        ),
        MixCase(
            ["firefly", "moesi"],
            False,
            note="undefined snoop behaviour for invalidates (col 6)",
        ),
        MixCase(
            ["write-once", "non-caching"],
            False,
            note="undefined snoop behaviour for uncached accesses",
        ),
    ]


def _build_mutant(mutant_cls, chooser):
    """Protocol factory of a mutant case; bound with
    :func:`functools.partial`, it pickles by reference."""
    return mutant_cls()


def mutant_mixes() -> list[MixCase]:
    """Out-of-class mutants against a correct partner: all must fail."""
    return [
        MixCase(
            [functools.partial(_build_mutant, mutant_cls), "moesi"],
            False,
            label=f"{mutant_cls.__name__}+moesi",
            note="single-cell out-of-class mutation",
        )
        for mutant_cls in ALL_MUTANTS
    ]


#: Named case suites (the names a :class:`repro.specs.VerifySpec` lists).
SUITES: dict[str, Callable[[], list[MixCase]]] = {
    "class-members": class_member_mixes,
    "homogeneous-foreign": homogeneous_foreign,
    "incompatible": incompatible_mixes,
    "mutants": mutant_mixes,
}


def matrix_row(case: MixCase, result: ExplorationResult) -> dict:
    """The report row for one executed case."""
    return {
        "mix": result.label,
        "expected": "consistent" if case.expect_consistent else "violation",
        "observed": "consistent" if result.consistent else "violation",
        "ok": result.consistent == case.expect_consistent,
        "states": result.states_explored,
        "transitions": result.transitions_taken,
        "note": case.note,
    }


def case_row(case: MixCase, **kwargs) -> dict:
    """Explore one case and return its report row (the pooled task)."""
    return matrix_row(case, case.run(**kwargs))


def run_matrix(
    cases: Sequence[MixCase],
    workers: int = 0,
    tracer=None,
    profiler=None,
    **kwargs,
) -> list[dict]:
    """Run each case; return report rows with pass/fail vs expectation.

    The cases go through :func:`repro.perf.pool.parallel_map`: in-process
    at ``workers`` <= 1, else across the pool (rows in case order,
    identical either way).  A :class:`repro.obs.trace.Tracer` gets one
    ``verify.case`` mark per row -- derived from the rows themselves, so
    the marks are identical for serial and pooled runs; a
    :class:`repro.obs.profile.Profiler` times the whole matrix.
    """
    from repro.perf.pool import parallel_map

    row_fn = functools.partial(case_row, **kwargs)
    if profiler is not None:
        with profiler.region(
            "verify.matrix", cases=len(cases), workers=workers or 1
        ):
            rows = parallel_map(row_fn, cases, workers=workers)
    else:
        rows = parallel_map(row_fn, cases, workers=workers)
    if tracer is not None:
        for row in rows:
            tracer.mark(
                "verify.case",
                mix=row["mix"],
                ok=row["ok"],
                observed=row["observed"],
                states=row["states"],
                transitions=row["transitions"],
            )
    return rows
