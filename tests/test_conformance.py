"""The conformance harness over the extended scenario space.

Three new kinds of registry citizen, each pinned from every angle the
harness owns:

* **adaptive update/invalidate hybrids** (``moesi-adaptive-threshold``,
  ``moesi-adaptive-competitive``) -- must be *full members* of the MOESI
  class (every adaptive pick stays inside the permitted choice sets),
  with golden tests for the per-line mode switches themselves;
* **MESIF**, the out-of-class negative fixture -- the membership
  validator must reject it with a precise per-cell diagnostic, while the
  protocol still runs end-to-end (explorer, shootout, fuzzer);
* **arbitration disciplines** -- every scenario carries one, and the
  arbitrated timed replay must converge to a coherent state under each.

The heavyweight closing tests (50+-seed fuzz campaigns, full sweeps) are
marked ``conformance`` so CI can run them as a dedicated job
(``pytest -m conformance``); they also run in the default suite.
"""

import dataclasses

import pytest

from repro.bus.arbiter import ARBITER_DISCIPLINES
from repro.core.events import BusEvent, LocalEvent
from repro.core.protocol import LocalContext, SnoopContext
from repro.core.states import LineState
from repro.core.validation import (
    MembershipError,
    assert_member,
    check_membership,
)
from repro.protocols.registry import make_protocol

M, O, E, S, I = (
    LineState.MODIFIED,
    LineState.OWNED,
    LineState.EXCLUSIVE,
    LineState.SHAREABLE,
    LineState.INVALID,
)

ADAPTIVE_SPECS = ("moesi-adaptive-threshold", "moesi-adaptive-competitive")


# ---------------------------------------------------------------------------
# Adaptive hybrids: full class members, by construction and by checker.
# ---------------------------------------------------------------------------
class TestAdaptiveHybridsAreMembers:
    @pytest.mark.parametrize("spec", ADAPTIVE_SPECS)
    def test_full_member(self, spec):
        report = assert_member(make_protocol(spec), full=True)
        assert report.is_full_member, report.diagnostic()

    @pytest.mark.parametrize("spec", ADAPTIVE_SPECS)
    def test_assert_member_returns_clean_report(self, spec):
        report = assert_member(make_protocol(spec))
        assert not report.issues and not report.uses_busy


class TestThresholdAdaptiveGolden:
    """Golden behaviour of the per-line threshold hybrid (threshold=2)."""

    def _protocol(self):
        from repro.core.policy import ThresholdAdaptivePolicy
        from repro.protocols.moesi import MoesiProtocol

        return MoesiProtocol(ThresholdAdaptivePolicy(threshold=2))

    def test_writer_switches_update_to_invalidate(self):
        protocol = self._protocol()
        ctx = LocalContext(address=0x100)
        # Writes 1..threshold broadcast-update (BC asserted)...
        for _ in range(2):
            action = protocol.local_action(O, LocalEvent.WRITE, ctx)
            assert action.signals.bc, action
        # ...the next write crosses the threshold and invalidates.
        action = protocol.local_action(O, LocalEvent.WRITE, ctx)
        assert action.signals.im and not action.signals.bc, action
        assert action.next_state is M

    def test_remote_read_resets_writer_to_update(self):
        protocol = self._protocol()
        ctx = LocalContext(address=0x100)
        for _ in range(3):
            protocol.local_action(O, LocalEvent.WRITE, ctx)
        # A snooped remote read of the line resets the write run.
        protocol.snoop_action(
            S, BusEvent.CACHE_READ, SnoopContext(address=0x100)
        )
        action = protocol.local_action(O, LocalEvent.WRITE, ctx)
        assert action.signals.bc, action

    def test_counters_are_per_line(self):
        protocol = self._protocol()
        hot, cold = LocalContext(address=0x100), LocalContext(address=0x900)
        for _ in range(3):
            protocol.local_action(O, LocalEvent.WRITE, hot)
        # The hot line switched; an unrelated line still updates.
        assert not protocol.local_action(O, LocalEvent.WRITE, hot).signals.bc
        assert protocol.local_action(O, LocalEvent.WRITE, cold).signals.bc

    def test_snooper_drops_after_unused_updates(self):
        protocol = self._protocol()
        ctx = SnoopContext(address=0x200)
        # Updates 1..threshold are connected to (copy retained)...
        for _ in range(2):
            action = protocol.snoop_action(
                S, BusEvent.CACHE_BROADCAST_WRITE, ctx
            )
            assert action.retains_copy, action
        # ...then the line is dropped instead.
        action = protocol.snoop_action(S, BusEvent.CACHE_BROADCAST_WRITE, ctx)
        assert not action.retains_copy
        assert action.next_state is I

    def test_local_access_resets_snooper(self):
        protocol = self._protocol()
        snoop_ctx = SnoopContext(address=0x200)
        for _ in range(3):
            protocol.snoop_action(S, BusEvent.CACHE_BROADCAST_WRITE, snoop_ctx)
        # The line is used locally again: updates are worth it once more.
        protocol.local_action(S, LocalEvent.READ, LocalContext(address=0x200))
        action = protocol.snoop_action(
            S, BusEvent.CACHE_BROADCAST_WRITE, snoop_ctx
        )
        assert action.retains_copy, action

    def test_threshold_validates(self):
        with pytest.raises(ValueError):
            from repro.core.policy import ThresholdAdaptivePolicy

            ThresholdAdaptivePolicy(threshold=0)


class TestCompetitiveAdaptiveGolden:
    """Golden behaviour of the per-line competitive hybrid (budget=2)."""

    def _protocol(self):
        from repro.core.policy import CompetitiveAdaptivePolicy
        from repro.protocols.moesi import MoesiProtocol

        return MoesiProtocol(CompetitiveAdaptivePolicy(budget=2))

    def test_snooper_spends_credits_then_invalidates(self):
        protocol = self._protocol()
        ctx = SnoopContext(address=0x300)
        action = protocol.snoop_action(S, BusEvent.CACHE_BROADCAST_WRITE, ctx)
        assert action.retains_copy, action  # credit left after 1st update
        action = protocol.snoop_action(S, BusEvent.CACHE_BROADCAST_WRITE, ctx)
        assert not action.retains_copy  # budget exhausted
        assert action.next_state is I

    def test_local_access_refills_budget(self):
        protocol = self._protocol()
        ctx = SnoopContext(address=0x300)
        protocol.snoop_action(S, BusEvent.CACHE_BROADCAST_WRITE, ctx)
        protocol.local_action(S, LocalEvent.READ, LocalContext(address=0x300))
        action = protocol.snoop_action(S, BusEvent.CACHE_BROADCAST_WRITE, ctx)
        assert action.retains_copy, action

    def test_writer_always_updates(self):
        protocol = self._protocol()
        ctx = LocalContext(address=0x300)
        for _ in range(6):
            action = protocol.local_action(O, LocalEvent.WRITE, ctx)
            assert action.signals.bc, action

    def test_budget_validates(self):
        with pytest.raises(ValueError):
            from repro.core.policy import CompetitiveAdaptivePolicy

            CompetitiveAdaptivePolicy(budget=0)


# ---------------------------------------------------------------------------
# MESIF: the negative fixture.
# ---------------------------------------------------------------------------
#: Every cell of the MESIF tables, in the repo's rendered notation (the
#: F state rides the O slot).  Golden: any table edit must be deliberate.
MESIF_LOCAL_GOLDEN = {
    (M, LocalEvent.READ): "M",
    (O, LocalEvent.READ): "O",
    (E, LocalEvent.READ): "E",
    (S, LocalEvent.READ): "S",
    (I, LocalEvent.READ): "CH:O/E,CA,R",
    (M, LocalEvent.WRITE): "M",
    (E, LocalEvent.WRITE): "M",
    (S, LocalEvent.WRITE): "M,CA,IM",
    (O, LocalEvent.WRITE): "M,CA,IM",
    (I, LocalEvent.WRITE): "M,CA,IM,R",
    (M, LocalEvent.PASS): "E,CA,W",
    (M, LocalEvent.FLUSH): "I,W",
    (E, LocalEvent.FLUSH): "I",
    (S, LocalEvent.FLUSH): "I",
    (O, LocalEvent.FLUSH): "I",
}

MESIF_SNOOP_GOLDEN = {
    (M, BusEvent.CACHE_READ): "BS;S,CA,W",
    (M, BusEvent.CACHE_READ_FOR_MODIFY): "BS;I,CA,W",
    (E, BusEvent.CACHE_READ): "S,CH",
    (E, BusEvent.CACHE_READ_FOR_MODIFY): "I",
    (S, BusEvent.CACHE_READ): "S,CH",
    (S, BusEvent.CACHE_READ_FOR_MODIFY): "I",
    (O, BusEvent.CACHE_READ): "S,CH,DI",
    (O, BusEvent.CACHE_READ_FOR_MODIFY): "I",
    (I, BusEvent.CACHE_READ): "I",
    (I, BusEvent.CACHE_READ_FOR_MODIFY): "I",
}


class TestMesifGoldenTable:
    @pytest.mark.parametrize(
        "cell", sorted(MESIF_LOCAL_GOLDEN, key=str), ids=str
    )
    def test_local_cell(self, cell):
        protocol = make_protocol("mesif")
        state, event = cell
        assert str(protocol.local_action(state, event)) == \
            MESIF_LOCAL_GOLDEN[cell]

    @pytest.mark.parametrize(
        "cell", sorted(MESIF_SNOOP_GOLDEN, key=str), ids=str
    )
    def test_snoop_cell(self, cell):
        protocol = make_protocol("mesif")
        state, event = cell
        assert str(protocol.snoop_action(state, event)) == \
            MESIF_SNOOP_GOLDEN[cell]

    def test_tables_cover_exactly_the_golden_cells(self):
        protocol = make_protocol("mesif")
        assert set(protocol.local_transitions) == set(MESIF_LOCAL_GOLDEN)
        assert set(protocol.snoop_transitions) == set(MESIF_SNOOP_GOLDEN)


class TestMesifRejected:
    """The validator must refuse MESIF -- with the exact reasons."""

    def test_not_a_member(self):
        report = check_membership(make_protocol("mesif"))
        assert not report.is_member
        assert report.is_adapted  # dirty data moves via the BS abort-push

    def test_assert_member_raises_with_precise_diagnostic(self):
        with pytest.raises(MembershipError) as excinfo:
            assert_member(make_protocol("mesif"))
        diagnostic = str(excinfo.value)
        # The four designed clashes, cell by cell:
        assert "state I, event Read: CH:O/E,CA,R" in diagnostic  # fill to F
        assert "state O, event Flush: I" in diagnostic  # silent F drop
        # F hands itself off on a snooped read (col 5)...
        assert "state O, event CA,~IM,~BC (col 5): S,CH,DI" in diagnostic
        # ...and refuses to supply on a read-for-modify (col 6).
        assert "state O, event CA,IM,~BC (col 6): I" in diagnostic
        # The abort-push reliance is named too.
        assert "relies on the BS (busy) abort adaptation" in diagnostic

    def test_exactly_four_out_of_class_cells(self):
        report = check_membership(make_protocol("mesif"))
        assert len(report.issues) == 4, report.diagnostic()

    def test_report_carried_on_the_error(self):
        with pytest.raises(MembershipError) as excinfo:
            assert_member(make_protocol("mesif"))
        assert excinfo.value.report.protocol_name == "MESIF"


# ---------------------------------------------------------------------------
# Explorer cross-checks: the new entries run clean where they should.
# ---------------------------------------------------------------------------
@pytest.mark.conformance
class TestExplorerCrossChecks:
    def test_mesif_homogeneous_is_coherent(self):
        from repro.verify.explorer import explore

        result = explore(["mesif", "mesif"], label="conformance:mesif")
        assert not result.violations, result.violations[0]
        assert result.states_explored > 1

    @pytest.mark.parametrize("spec", ADAPTIVE_SPECS)
    def test_adaptive_mixes_with_class_members(self, spec):
        from repro.verify.explorer import explore

        result = explore([spec, "moesi"], label=f"conformance:{spec}+moesi")
        assert not result.violations, result.violations[0]

    def test_adaptive_hybrids_mix_with_each_other(self):
        from repro.verify.explorer import explore

        result = explore(
            list(ADAPTIVE_SPECS), label="conformance:adaptive+adaptive"
        )
        assert not result.violations, result.violations[0]


# ---------------------------------------------------------------------------
# End-to-end: fuzz campaigns and the arbitrated replay.
# ---------------------------------------------------------------------------
@pytest.mark.conformance
class TestScenarioSpaceFuzz:
    def test_default_pool_with_new_entries_50_seeds(self):
        """The default pool now draws adaptive hybrids and MESIF; 50+
        seeds of mixed scenarios run with zero divergence."""
        from repro.api import execute, plan
        from repro.fuzz import ScenarioConfig

        spec = plan("fuzz", seeds=60, scenario=ScenarioConfig())
        report = execute(spec).report
        assert report.seeds_run == 60
        assert not report.failures, report.failures[0].failure

    def test_homogeneous_mesif_50_seeds(self):
        """MESIF fuzzes clean against its own table (negative fixture
        still *runs* correctly -- it is rejected for class membership,
        not for coherence)."""
        from repro.api import execute, plan
        from repro.fuzz import ScenarioConfig

        spec = plan(
            "fuzz",
            seeds=50,
            scenario=ScenarioConfig(p_foreign=1.0, foreign_pool=("mesif",)),
        )
        report = execute(spec).report
        assert report.seeds_run == 50
        assert not report.failures, report.failures[0].failure

    def test_adaptive_only_pool_50_seeds(self):
        from repro.api import execute, plan
        from repro.fuzz import ScenarioConfig

        spec = plan(
            "fuzz",
            seeds=50,
            scenario=ScenarioConfig(p_foreign=0.0, class_pool=ADAPTIVE_SPECS),
        )
        report = execute(spec).report
        assert report.seeds_run == 50
        assert not report.failures, report.failures[0].failure


@pytest.mark.conformance
class TestArbitratedReplay:
    @pytest.mark.parametrize("discipline", ARBITER_DISCIPLINES)
    def test_replay_is_coherent_under_every_discipline(self, discipline):
        """The same schedules, re-ordered by each arbiter, still converge
        to a coherent quiescent state."""
        from repro.fuzz import generate_scenario, run_scenario_arbitrated
        from repro.fuzz.scenario import ScenarioConfig

        config = ScenarioConfig(disciplines=(discipline,))
        for seed in range(16):
            scenario = generate_scenario(seed, config)
            assert scenario.discipline == discipline
            result = run_scenario_arbitrated(scenario)
            assert result.ok, f"seed {seed}: {result.failure}"

    def test_scenarios_draw_every_discipline(self):
        from repro.fuzz import generate_scenario

        drawn = {generate_scenario(seed).discipline for seed in range(40)}
        assert drawn == set(ARBITER_DISCIPLINES)


@pytest.mark.conformance
class TestDisciplineSweep:
    """The Nikolov & Lerato comparative study, in miniature."""

    def test_sweep_shapes_and_fairness(self):
        from repro.analysis.compare import (
            DEFAULT_DISCIPLINES,
            arbitration_discipline_sweep,
        )

        rows = arbitration_discipline_sweep(references=600, processors=3)
        assert [row["discipline"] for row in rows] == list(DEFAULT_DISCIPLINES)
        by_discipline = {row["discipline"]: row for row in rows}
        # The priority slot visibly shortens the favored master's wait...
        priority = by_discipline["priority:cpu0=1"]
        favored = priority["per_unit_wait_us"]["cpu0"]
        others = [wait for unit, wait in priority["per_unit_wait_us"].items()
                  if unit != "cpu0"]
        assert favored < min(others)
        # ...at a visible fairness cost versus FCFS and round-robin.
        assert priority["wait_spread"] > by_discipline["fcfs"]["wait_spread"]
        assert priority["wait_spread"] > \
            by_discipline["round-robin"]["wait_spread"]

    def test_mesif_runs_the_shootout(self):
        """The negative fixture is still a usable baseline."""
        from repro.analysis.compare import run_protocol_on_trace
        from repro.workloads.synthetic import SyntheticConfig, SyntheticWorkload

        trace = SyntheticWorkload(
            SyntheticConfig(processors=2, p_shared=0.4, p_write=0.3), seed=5
        ).trace(500)
        report = run_protocol_on_trace("mesif", trace, check=False)
        assert report.accesses == 500
        assert report.bus.transactions > 0
