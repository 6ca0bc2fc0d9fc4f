"""Mutation coverage: every registered mutant must be caught.

The negative controls in :mod:`repro.verify.mutations` are only worth
their name if the tooling actually flags each one.  This file pins that
down mutant-by-mutant, on three independent detectors:

* the exhaustive explorer (paired with a correct MOESI partner);
* the static membership validator;
* the fuzzer's differential transition oracle (for the mutants exposed
  as injectable bugs).

A mutant that some detector cannot catch is a *survivor*: mark it
``xfail`` here with a reason rather than deleting it, so the gap stays
visible in every test run.
"""

import pytest

from repro.core.validation import check_membership
from repro.verify.explorer import explore
from repro.verify.mutations import ALL_MUTANTS

#: Mutants a given detector is known not to catch, with the reason.
#: Empty today -- new survivors get an entry, not silence.
EXPLORER_SURVIVORS: dict[str, str] = {}
VALIDATOR_SURVIVORS: dict[str, str] = {}

_MUTANT_IDS = [cls.__name__ for cls in ALL_MUTANTS]


def _xfail_if_survivor(name: str, survivors: dict[str, str]) -> None:
    if name in survivors:
        pytest.xfail(f"known survivor: {survivors[name]}")


@pytest.mark.parametrize("mutant_cls", ALL_MUTANTS, ids=_MUTANT_IDS)
def test_explorer_catches_mutant(mutant_cls):
    """Exhaustive exploration of mutant+partner finds a violation.

    The partner is the mutant's own ``partner_spec`` (BS-adapted bases
    like MESIF must stay homogeneous, exactly as in real scenarios).
    """
    _xfail_if_survivor(mutant_cls.__name__, EXPLORER_SURVIVORS)
    partner = mutant_cls.partner_spec
    result = explore(
        [lambda chooser: mutant_cls(), partner],
        label=f"coverage:{mutant_cls.__name__}+{partner}",
    )
    assert result.violations, (
        f"{mutant_cls.__name__} survived exhaustive exploration: "
        f"{result.states_explored} states, "
        f"{result.transitions_taken} transitions, no violation"
    )


@pytest.mark.parametrize("mutant_cls", ALL_MUTANTS, ids=_MUTANT_IDS)
def test_validator_rejects_mutant(mutant_cls):
    """Static membership checking flags the mutated cell."""
    _xfail_if_survivor(mutant_cls.__name__, VALIDATOR_SURVIVORS)
    mutant = mutant_cls()
    report = check_membership(mutant)
    assert not report.is_member, (
        f"{mutant_cls.__name__} passed membership checking"
    )
    # The mutated cell itself must be flagged -- a base that is already
    # non-member (MESIF) is not allowed to mask the mutation.
    base_report = check_membership(mutant.base)
    assert len(report.issues) > len(base_report.issues), (
        f"{mutant_cls.__name__} added no issue beyond its base "
        f"{mutant.base.name}"
    )


def test_every_mutant_has_explorer_coverage():
    """The parametrization above tracks the registry: adding a mutant to
    ALL_MUTANTS automatically adds it to both detectors' matrices."""
    assert len(ALL_MUTANTS) == len(set(_MUTANT_IDS)) >= 5


def test_injectable_bug_mutants_caught_by_fuzzer():
    """The mutants doubling as fuzz self-test bugs fail a short campaign,
    and their counterexamples shrink to a handful of events."""
    import dataclasses

    from repro.api import execute, plan
    from repro.fuzz import INJECTABLE_BUGS, ScenarioConfig

    mutant_bugs = [
        name for name, bug in INJECTABLE_BUGS.items()
        if bug.base in ("moesi", "moesi-adaptive-threshold", "mesif")
    ]
    assert len(mutant_bugs) >= 4, "no mutants are exposed as injectable bugs"
    for name in mutant_bugs:
        spec = plan(
            "fuzz",
            seeds=40,
            scenario=dataclasses.replace(ScenarioConfig(), inject=name),
        )
        report = execute(spec).report
        assert report.failures, f"bug:{name} survived 40 fuzz seeds"
        smallest = min(len(f.scenario.events) for f in report.failures)
        assert smallest <= 6, (
            f"bug:{name} counterexample did not shrink below 6 events"
        )
