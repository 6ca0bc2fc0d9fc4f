"""The compiled explorer against its oracle, the object explorer.

:func:`repro.verify.explorer.explore` runs the packed-state search of
:mod:`repro.verify.compiled` whenever every unit lowers to integer
tables.  The contract is the object search's result, exactly: the same
reachable canonical states, the same state and transition counts, the
same completeness verdict, and the same violations -- paths and error
strings alike.  The committed goldens pin ``repro verify --json`` and
the Write-Once + MOESI violation text to what the object engine printed.
"""

from pathlib import Path

import pytest

from repro.cli import main
from repro.core.transitions import batchable, lower_batch_tables
from repro.verify.compiled import CompiledExplorer
from repro.verify.explorer import Explorer, explore
from repro.verify.mixes import SUITES, MixCase
from repro.verify.mutations import (
    AdaptiveRetainWithoutConnectMutant,
    SilentSharedWriteMutant,
)

GOLDEN = Path(__file__).parent / "golden"

ONE_LINE = [
    pytest.param(suite, index, id=f"{suite}[{index}]")
    for suite, factory in SUITES.items()
    for index in range(len(factory()))
]
TWO_LINES = [
    ("full-class", "full-class"),
    ("moesi-scripted", "moesi-scripted"),
    ("moesi", "moesi"),
    ("illinois", "moesi"),
    # Three caches of one way for two lines: a fill evicts the other
    # line, so lookup, install and eviction all run on every branch.
    ("illinois", "illinois", "illinois"),
    ("moesi-scripted", "berkeley", "write-through"),
    ("full-class", "berkeley", "non-caching"),
]


def _both(specs, **kwargs):
    """Run the object search and (when it lowers) the compiled one on
    fresh explorers; returns ``(object_explorer, object_result,
    compiled, compiled_result)``."""
    oracle = Explorer(specs, **kwargs)
    expected = oracle.run()
    compiled = CompiledExplorer.lower(Explorer(specs, **kwargs))
    got = None if compiled is None else compiled.run()
    return oracle, expected, compiled, got


def _assert_same(oracle, expected, compiled, got):
    assert got.label == expected.label
    assert got.states_explored == expected.states_explored
    assert got.transitions_taken == expected.transitions_taken
    assert got.complete == expected.complete
    assert [str(v) for v in got.violations] == [
        str(v) for v in expected.violations
    ]
    assert [v.path for v in got.violations] == [
        v.path for v in expected.violations
    ]
    assert compiled.signatures == oracle.signatures


def _is_context_sensitive(case: MixCase) -> bool:
    return case.label == "AdaptiveRetainWithoutConnectMutant+moesi"


class TestOracle:
    @pytest.mark.parametrize("suite,index", ONE_LINE)
    def test_every_suite_case_at_one_line(self, suite, index):
        case = SUITES[suite]()[index]
        oracle, expected, compiled, got = _both(case.specs, label=case.label)
        if _is_context_sensitive(case):
            assert compiled is None
            return
        _assert_same(oracle, expected, compiled, got)

    @pytest.mark.parametrize("specs", TWO_LINES, ids="+".join)
    def test_two_lines(self, specs):
        _assert_same(*_both(list(specs), lines=2))

    @pytest.mark.parametrize("max_states", [1, 5, 40])
    def test_bounded_search(self, max_states):
        oracle, expected, compiled, got = _both(
            ["moesi-scripted", "berkeley"], lines=2, max_states=max_states
        )
        assert not expected.complete
        _assert_same(oracle, expected, compiled, got)

    def test_search_flags(self):
        for flags in (
            {"include_pass": False},
            {"include_downgrades": False},
        ):
            _assert_same(*_both(["full-class", "write-through"], **flags))

    def test_explore_takes_the_compiled_path(self, monkeypatch):
        ran = []
        original = CompiledExplorer.run

        def spy(self):
            ran.append(self.label)
            return original(self)

        monkeypatch.setattr(CompiledExplorer, "run", spy)
        result = explore(["moesi", "dragon"])
        assert ran == ["moesi+dragon"] and result.consistent

    def test_profiler_region_kept(self):
        from repro.obs.profile import Profiler

        profiler = Profiler()
        result = explore(["moesi", "moesi"], profiler=profiler)
        (record,) = [
            r for r in profiler.records if r.name == "explorer.frontier"
        ]
        assert record.meta["states"] == result.states_explored
        assert record.meta["transitions"] == result.transitions_taken


class TestContextSensitiveFallback:
    def test_mutant_is_rejected_unprobed(self, monkeypatch):
        mutant = AdaptiveRetainWithoutConnectMutant()

        def probed(*args, **kwargs):
            raise AssertionError("a stateful selector was probed")

        monkeypatch.setattr(mutant.base.policy, "choose_local", probed)
        monkeypatch.setattr(mutant.base.policy, "choose_snoop", probed)
        assert lower_batch_tables(mutant) is None
        assert not batchable(mutant)

    def test_mutant_takes_the_object_path(self):
        case = [
            c
            for c in SUITES["mutants"]()
            if _is_context_sensitive(c)
        ][0]
        explorer = Explorer(case.specs, label=case.label)
        assert CompiledExplorer.lower(explorer) is None
        result = case.run()
        assert not result.consistent
        assert (result.states_explored, result.transitions_taken) == (
            18,
            112,
        )


def _per_page(chooser):
    """Line 1 write-through, line 0 copy-back: its cells key on the line
    address, and no line the lowering probe samples is line 1's page."""
    from repro.ext.perpage import PageMap, PerPageProtocol

    return PerPageProtocol(
        PageMap(page_size=32, line_size=32, assignments={1: "write-through"})
    )


class TestContextReadingCallables:
    """A callable that is not a stock shipped mutant may read its
    context, so the whole search stays on the object engine."""

    @pytest.mark.parametrize(
        "specs",
        [
            [_per_page, "moesi"],
            [lambda chooser: SilentSharedWriteMutant(_per_page(chooser)),
             "moesi"],
        ],
        ids=["per-page", "mutant-on-per-page"],
    )
    def test_address_dependent_callable_at_two_lines(self, specs):
        assert CompiledExplorer.lower(Explorer(specs, lines=2)) is None
        expected = Explorer(specs, lines=2).run()
        got = explore(specs, lines=2)
        assert (got.states_explored, got.transitions_taken) == (
            expected.states_explored,
            expected.transitions_taken,
        )
        assert [str(v) for v in got.violations] == [
            str(v) for v in expected.violations
        ]

    def test_stock_mutants_still_compile(self):
        specs = [lambda chooser: SilentSharedWriteMutant(), "moesi"]
        assert CompiledExplorer.lower(Explorer(specs)) is not None


class TestGoldens:
    """Byte-equality with the object engine's committed output."""

    @pytest.mark.parametrize(
        "argv,golden",
        [
            (["verify", "--json"], "verify.json"),
            (["verify", "--quick", "--json"], "verify_quick.json"),
        ],
        ids=["full", "quick"],
    )
    def test_verify_json(self, capsys, argv, golden):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")

    def test_write_once_moesi_violations(self):
        result = explore(["write-once", "moesi"])
        text = "".join(f"{v}\n" for v in result.violations)
        expected = (GOLDEN / "write_once_moesi_violations.txt").read_text(
            encoding="utf-8"
        )
        assert text == expected
