"""Experiment E1: the compatibility theorem, exhaustively model-checked.

Reproduces the paper's central claims as a verification matrix:

* every mix of MOESI-class members is consistent under *every* permitted
  action choice and interleaving;
* the BS-adapted foreign protocols are consistent among themselves;
* naive foreign/class mixes and single-cell mutants are caught.
"""

from repro.analysis.report import format_rows
from repro.verify.explorer import explore
from repro.verify.mixes import (
    class_member_mixes,
    homogeneous_foreign,
    incompatible_mixes,
    mutant_mixes,
    run_matrix,
)


def test_full_class_two_caches_exhaustive(benchmark, save_artifact):
    """The strongest single statement: two caches, each free to take ANY
    action in the relaxation closure at every step."""
    result = benchmark.pedantic(
        lambda: explore(["full-class", "full-class"]),
        rounds=3, iterations=1,
    )
    assert result.consistent and result.complete
    save_artifact("e1_full_class_exploration", result.summary())


def test_three_way_mixed_members(benchmark):
    result = benchmark.pedantic(
        lambda: explore(["moesi-scripted", "berkeley", "write-through"]),
        rounds=3, iterations=1,
    )
    assert result.consistent and result.complete


def test_verification_matrix(benchmark, save_artifact):
    """The full E1 matrix (30 rows): every row must land as expected."""
    cases = (
        class_member_mixes()
        + homogeneous_foreign()
        + incompatible_mixes()
        + mutant_mixes()
    )
    rows = benchmark.pedantic(
        lambda: run_matrix(cases), rounds=1, iterations=1
    )
    assert all(r["ok"] for r in rows), [r for r in rows if not r["ok"]]
    save_artifact(
        "e1_verification_matrix",
        format_rows(
            rows,
            "E1: compatibility verification matrix "
            "(exhaustive model checking, one line, all interleavings "
            "and permitted choices)",
            columns=["mix", "expected", "observed", "ok", "states",
                     "transitions", "note"],
        ),
    )


def test_two_line_eviction_coupling(benchmark, save_artifact):
    """Strengthened E1: two line addresses aliasing one cache frame, so
    capacity evictions and write-backs enter the explored space.  The
    full relaxation closure remains consistent, exhaustively."""
    result = benchmark.pedantic(
        lambda: explore(["full-class", "full-class"], lines=2),
        rounds=1, iterations=1,
    )
    assert result.consistent and result.complete
    save_artifact("e1b_two_line_exploration", result.summary())
