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
    "matrix_row",
    "run_matrix",
]


@dataclasses.dataclass
class MixCase:
    """One verification row: protocols to mix and the expected outcome.

    ``suite_ref`` names the case's home suite as ``(suite_name, index)``
    so worker processes can rebuild it from :data:`SUITES` -- cases whose
    specs are callables (the mutants) cannot be pickled directly.
    """

    specs: Sequence
    expect_consistent: bool
    label: Optional[str] = None
    note: str = ""
    suite_ref: Optional[tuple[str, int]] = None

    def run(self, **kwargs) -> ExplorationResult:
        return explore(self.specs, label=self.label, **kwargs)


def _stamp(suite_name: str, cases: list["MixCase"]) -> list["MixCase"]:
    for index, case in enumerate(cases):
        case.suite_ref = (suite_name, index)
    return cases


def class_member_mixes() -> list[MixCase]:
    """Mixes drawn from MOESI-class members: all must be consistent."""
    return _stamp("class-members", [
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
    ])


def homogeneous_foreign() -> list[MixCase]:
    """BS-adapted foreign protocols among themselves: consistent."""
    return _stamp("homogeneous-foreign", [
        MixCase(["write-once", "write-once"], True, note="Table 5"),
        MixCase(["illinois", "illinois"], True, note="Table 6"),
        MixCase(["firefly", "firefly"], True, note="Table 7"),
        MixCase(["illinois", "illinois", "illinois"], True),
        MixCase(["write-once", "write-once", "write-once"], True),
    ])


def incompatible_mixes() -> list[MixCase]:
    """Naive foreign/class mixes: the explorer must find the holes."""
    return _stamp("incompatible", [
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
    ])


def mutant_mixes() -> list[MixCase]:
    """Out-of-class mutants against a correct partner: all must fail."""
    cases = []
    for mutant_cls in ALL_MUTANTS:
        cases.append(
            MixCase(
                [lambda chooser, cls=mutant_cls: cls(), "moesi"],
                False,
                label=f"{mutant_cls.__name__}+moesi",
                note="single-cell out-of-class mutation",
            )
        )
    return _stamp("mutants", cases)


#: Named case suites, addressable from worker processes: a stamped
#: ``suite_ref`` is resolved back to its case by re-running the factory.
SUITES: dict[str, Callable[[], list[MixCase]]] = {
    "class-members": class_member_mixes,
    "homogeneous-foreign": homogeneous_foreign,
    "incompatible": incompatible_mixes,
    "mutants": mutant_mixes,
}


def matrix_row(case: MixCase, result: ExplorationResult) -> dict:
    """The report row for one executed case (shared by the serial path
    and the :mod:`repro.perf.matrix` workers, so both emit identical
    rows)."""
    return {
        "mix": result.label,
        "expected": "consistent" if case.expect_consistent else "violation",
        "observed": "consistent" if result.consistent else "violation",
        "ok": result.consistent == case.expect_consistent,
        "states": result.states_explored,
        "transitions": result.transitions_taken,
        "note": case.note,
    }


def run_matrix(
    cases: Sequence[MixCase],
    workers: Optional[int] = None,
    tracer=None,
    profiler=None,
    **kwargs,
) -> list[dict]:
    """Run each case; return report rows with pass/fail vs expectation.

    With ``workers`` > 1 the cases fan out across a process pool (rows
    come back in case order, identical to a serial run); otherwise they
    run serially in-process.  A :class:`repro.obs.trace.Tracer` gets one
    ``verify.case`` mark per row -- derived from the rows themselves, so
    the marks are identical for serial and pooled runs; a
    :class:`repro.obs.profile.Profiler` times the whole matrix.
    """
    def _execute() -> list[dict]:
        if workers is not None and workers > 1:
            from repro.perf.matrix import run_matrix_parallel

            return run_matrix_parallel(cases, workers=workers, **kwargs)
        return [matrix_row(case, case.run(**kwargs)) for case in cases]

    if profiler is not None:
        with profiler.region(
            "verify.matrix", cases=len(cases), workers=workers or 1
        ):
            rows = _execute()
    else:
        rows = _execute()
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
