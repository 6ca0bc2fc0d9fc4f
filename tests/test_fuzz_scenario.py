"""Scenario generation: determinism, serialization, spec resolution."""

import dataclasses

import pytest

from repro.core.events import ALL_BUS_EVENTS, ALL_LOCAL_EVENTS
from repro.core.protocol import Protocol
from repro.core.states import LineState
from repro.fuzz.scenario import (
    FOREIGN_SPECS,
    INJECTABLE_BUGS,
    Scenario,
    ScenarioConfig,
    generate_scenario,
    reference_query,
    resolve_spec,
)
from repro.protocols.registry import PROTOCOL_FACTORIES
from repro.verify.explorer import (
    ClassTransitionQuery,
    ProtocolTransitionQuery,
)


class TestDeterminism:
    def test_same_seed_same_scenario(self):
        assert generate_scenario(123) == generate_scenario(123)

    def test_different_seeds_differ_somewhere(self):
        scenarios = {generate_scenario(seed) for seed in range(20)}
        assert len(scenarios) > 1

    def test_config_changes_scenario(self):
        base = generate_scenario(5)
        forced = generate_scenario(
            5, dataclasses.replace(ScenarioConfig(), inject="moesi-drop-ownership")
        )
        assert base != forced
        assert any(u.startswith("bug:") for u in forced.units)

    def test_event_counts_respect_bounds(self):
        config = ScenarioConfig(min_events=3, max_events=5)
        for seed in range(30):
            scenario = generate_scenario(seed, config)
            assert 3 <= len(scenario.events) <= 5

    def test_unit_counts_respect_bounds(self):
        config = ScenarioConfig(min_units=2, max_units=3)
        for seed in range(30):
            scenario = generate_scenario(seed, config)
            assert 2 <= len(scenario.units) <= 3


class TestMixDiscipline:
    def test_foreign_scenarios_are_homogeneous(self):
        """BS-adapted protocols never mix (the paper's E4 warning)."""
        for seed in range(200):
            scenario = generate_scenario(seed)
            bases = {u.split(":", 1)[0] for u in scenario.units}
            if bases & set(FOREIGN_SPECS):
                assert len(bases) == 1, scenario.units

    def test_injected_bug_rides_with_its_base(self):
        config = dataclasses.replace(
            ScenarioConfig(), inject="illinois-silent-im"
        )
        for seed in range(20):
            scenario = generate_scenario(seed, config)
            assert scenario.units.count("bug:illinois-silent-im") == 1
            assert set(scenario.units) <= {"bug:illinois-silent-im",
                                           "illinois"}


class TestSerialization:
    def test_scenario_json_round_trip(self):
        scenario = generate_scenario(77)
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_config_round_trip(self):
        config = dataclasses.replace(
            ScenarioConfig(), inject="moesi-drop-ownership", max_events=9
        )
        assert ScenarioConfig.from_dict(config.to_dict()) == config


class TestResolveSpec:
    @pytest.mark.parametrize("spec", ["moesi", "berkeley", "illinois",
                                      "full-class:7", "moesi-random:7"])
    def test_resolves_to_protocol(self, spec):
        assert isinstance(resolve_spec(spec), Protocol)

    def test_seeded_specs_reproduce_choices(self):
        """Two instances from the same spec string make identical dynamic
        choices -- the property replay depends on."""
        a, b = resolve_spec("full-class:42"), resolve_spec("full-class:42")
        from repro.core.events import LocalEvent
        from repro.core.states import LineState

        picks_a = [a.local_action(LineState.INVALID, LocalEvent.READ)
                   for _ in range(10)]
        picks_b = [b.local_action(LineState.INVALID, LocalEvent.READ)
                   for _ in range(10)]
        assert picks_a == picks_b

    def test_every_injectable_bug_resolves(self):
        for name in INJECTABLE_BUGS:
            assert isinstance(resolve_spec(f"bug:{name}"), Protocol)

    def test_unknown_bug_raises(self):
        with pytest.raises(ValueError, match="unknown injectable bug"):
            resolve_spec("bug:nope")


class TestReferenceQuery:
    def test_class_member_gets_class_query(self):
        assert isinstance(reference_query("moesi"), ClassTransitionQuery)

    def test_full_class_reference_is_unfiltered(self):
        query = reference_query("full-class:3")
        assert isinstance(query, ClassTransitionQuery)
        assert query.kind is None

    def test_foreign_gets_protocol_query(self):
        query = reference_query("illinois")
        assert isinstance(query, ProtocolTransitionQuery)

    def test_one_shared_reference_per_base(self):
        assert reference_query("moesi-random:1") is reference_query(
            "moesi-random:2"
        )
        assert reference_query("full-class:3") is reference_query(
            "full-class:4"
        )
        assert reference_query("bug:illinois-silent-im") is reference_query(
            "illinois"
        )
        assert reference_query("moesi") is not reference_query("berkeley")

    @pytest.mark.parametrize(
        "spec",
        sorted(PROTOCOL_FACTORIES) + ["full-class:1", "moesi-random:1"]
        + [f"bug:{name}" for name in sorted(INJECTABLE_BUGS)],
    )
    def test_instances_share_action_objects(self, spec):
        """The shared references memoize verdicts by action identity for
        the life of the process; that memo stays bounded only because
        every fuzzed protocol hands out the same action objects."""
        first, second = resolve_spec(spec), resolve_spec(spec)
        for state in LineState:
            for event in ALL_LOCAL_EVENTS:
                a, b = first.local_cell(state, event), second.local_cell(
                    state, event
                )
                assert len(a) == len(b)
                assert all(x is y for x, y in zip(a, b)), (state, event)
            for event in ALL_BUS_EVENTS:
                a, b = first.snoop_cell(state, event), second.snoop_cell(
                    state, event
                )
                assert len(a) == len(b)
                assert all(x is y for x, y in zip(a, b)), (state, event)

    def test_bug_checked_against_unmutated_base(self):
        """The whole point of differential testing: the buggy board is
        judged by the table of the protocol it claims to be."""
        query = reference_query("bug:illinois-silent-im")
        assert isinstance(query, ProtocolTransitionQuery)
        assert "bug" not in query.protocol.name.lower()
