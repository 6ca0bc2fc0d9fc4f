"""Exhaustive compiled-vs-dict equivalence for the table compiler.

The hot paths serve transitions from integer-indexed flat tuples
(:mod:`repro.core.transitions` compiler section); these tests check every
single (state, event) cell of every lowering against its dict-based
source:

* the MOESI-class relaxation closure (Tables 1/2 plus relaxations 9-12),
* every registered protocol's cell tables (including the paper's
  Tables 3-7 via Berkeley, Dragon, Write-Once, Illinois and Firefly),
* every compiled :class:`TableProtocol` against its own mappings (and
  the class snoop fallback), action by action and error by error,
* and a fuzz seed sweep proving scenario outcomes are identical whether
  the cache controller serves decisions from flat tables or consults
  the protocol.
"""

from __future__ import annotations

import pytest

from repro.core.events import ALL_BUS_EVENTS, ALL_LOCAL_EVENTS, LocalEvent
from repro.core.protocol import IllegalTransitionError, TableProtocol
from repro.core.states import LineState
from repro.core.transitions import (
    N_BUS_EVENTS,
    N_LOCAL_EVENTS,
    N_STATES,
    TableCompilationError,
    _choice_order,
    compile_cells,
    compiled_class_cells,
    shared_class_table,
    verify_compiled,
)
from repro.protocols.compiled import (
    compile_protocol,
    compile_registry,
    compiled_table_report,
)
from repro.protocols.registry import PROTOCOL_FACTORIES, make_protocol

ALL_LOCAL_PAIRS = [
    (state, event) for state in LineState for event in ALL_LOCAL_EVENTS
]
ALL_SNOOP_PAIRS = [
    (state, event) for state in LineState for event in ALL_BUS_EVENTS
]


class TestInterning:
    """The integer codes the flat tables are indexed by."""

    def test_state_codes_are_enum_order(self):
        assert [state.code for state in LineState] == list(range(N_STATES))

    def test_local_event_codes_match_column_order(self):
        assert [event.code for event in ALL_LOCAL_EVENTS] == list(
            range(N_LOCAL_EVENTS)
        )

    def test_bus_event_codes_match_column_order(self):
        assert [event.code for event in ALL_BUS_EVENTS] == list(
            range(N_BUS_EVENTS)
        )

    def test_local_index_arithmetic_is_bijective(self):
        indices = {
            state.code * N_LOCAL_EVENTS + event.code
            for state, event in ALL_LOCAL_PAIRS
        }
        assert indices == set(range(N_STATES * N_LOCAL_EVENTS))

    def test_snoop_index_arithmetic_is_bijective(self):
        indices = {
            state.code * N_BUS_EVENTS + event.code
            for state, event in ALL_SNOOP_PAIRS
        }
        assert indices == set(range(N_STATES * N_BUS_EVENTS))

    def test_valid_attribute_survived_interning(self):
        assert not LineState.INVALID.valid
        assert all(
            state.valid for state in LineState if state is not LineState.INVALID
        )


class TestClassClosureCompiled:
    """The compiled relaxation closure against the dict-based table."""

    def test_every_local_cell_matches_closure(self):
        table = shared_class_table()
        cells = compiled_class_cells()
        for state, event in ALL_LOCAL_PAIRS:
            expected = tuple(
                sorted(
                    table.local_action_set(state, event),
                    key=_choice_order,
                )
            )
            assert cells.local_cell(state, event) == expected, (state, event)

    def test_notation_ties_have_a_fixed_order(self):
        """The three copy-back Read>Write actions share one notation; the
        next state orders them, not the frozenset's hash order."""
        cell = compiled_class_cells().local_cell(
            LineState.INVALID, LocalEvent.WRITE
        )
        tied = [a for a in cell if a.notation() == "Read>Write"]
        assert [_choice_order(a)[1] for a in tied] == [
            "CH:S/E", "CH:S/M", "S",
        ]

    def test_every_snoop_cell_matches_closure(self):
        table = shared_class_table()
        cells = compiled_class_cells()
        for state, event in ALL_SNOOP_PAIRS:
            expected = tuple(
                sorted(
                    table.snoop_action_set(state, event),
                    key=_choice_order,
                )
            )
            assert cells.snoop_cell(state, event) == expected, (state, event)

    def test_compiled_class_cells_is_shared(self):
        assert compiled_class_cells() is compiled_class_cells()

    def test_verify_rejects_cross_wired_tables(self):
        """verify_compiled must catch a table compiled from a different
        source -- the compile-then-verify safety net."""
        berkeley = make_protocol("berkeley")
        dragon = make_protocol("dragon")
        cells = compile_protocol(berkeley)
        with pytest.raises(TableCompilationError):
            verify_compiled(cells, dragon.local_cell, dragon.snoop_cell)

    def test_compile_without_verify_skips_the_check(self):
        berkeley = make_protocol("berkeley")
        cells = compile_cells(
            berkeley.local_cell, berkeley.snoop_cell, verify=False
        )
        verify_compiled(cells, berkeley.local_cell, berkeley.snoop_cell)


class TestRegistryProtocolsCompiled:
    """Every registered protocol, every cell."""

    @pytest.mark.parametrize("name", sorted(PROTOCOL_FACTORIES))
    def test_compiled_cells_match_dict_tables(self, name):
        protocol = make_protocol(name)
        cells = compile_protocol(protocol)
        for state, event in ALL_LOCAL_PAIRS:
            assert cells.local_cell(state, event) == tuple(
                protocol.local_cell(state, event)
            ), (name, state, event)
        for state, event in ALL_SNOOP_PAIRS:
            assert cells.snoop_cell(state, event) == tuple(
                protocol.snoop_cell(state, event)
            ), (name, state, event)

    @pytest.mark.parametrize("name", sorted(PROTOCOL_FACTORIES))
    def test_fast_path_equals_dict_path_cell_by_cell(self, name):
        """A compiled instance answers every cell with its own mapping's
        action (or, with ``snoop_default_to_class``, the class snoop
        fallback) and raises IllegalTransitionError on every "--"."""
        protocol = make_protocol(name)
        if not isinstance(protocol, TableProtocol):
            pytest.skip("policy-driven protocol: no deterministic fast path")

        def outcome(method, state, event):
            try:
                return method(state, event)
            except IllegalTransitionError:
                return "--"

        for state, event in ALL_LOCAL_PAIRS:
            expected = protocol.local_transitions.get((state, event), "--")
            assert outcome(protocol.local_action, state, event) == expected, (
                name, state, event,
            )
        for state, event in ALL_SNOOP_PAIRS:
            expected = protocol.snoop_transitions.get((state, event))
            if expected is None and protocol.snoop_default_to_class:
                expected = protocol._class_snoop_fallback(state, event)
            assert outcome(protocol.snoop_action, state, event) == (
                "--" if expected is None else expected
            ), (name, state, event)
        assert protocol._fast_tables is not None

    def test_compile_registry_covers_every_protocol(self):
        compiled = compile_registry()
        assert sorted(compiled) == sorted(PROTOCOL_FACTORIES)

    def test_compiled_table_report_all_ok(self):
        rows = compiled_table_report()
        assert len(rows) == len(PROTOCOL_FACTORIES)
        assert all(row["ok"] for row in rows)
        assert any(row["deterministic"] for row in rows)


class TestSharedFastTables:
    """Verified tables are compiled once per class, not per instance."""

    def test_instances_of_one_class_share_one_table(self):
        first, second = make_protocol("illinois"), make_protocol("illinois")
        assert first._compile_fast_tables() is second._compile_fast_tables()
        assert make_protocol("berkeley")._compile_fast_tables() is not (
            first._fast_tables
        )

    def test_instance_mapping_compiles_its_own(self):
        shared = make_protocol("illinois")._compile_fast_tables()
        own = make_protocol("illinois")
        own.snoop_transitions = dict(own.snoop_transitions)
        tables = own._compile_fast_tables()
        assert tables is not shared
        assert tables == shared  # same cells, compiled separately
        # ... and the class's shared entry is untouched by it.
        assert make_protocol("illinois")._compile_fast_tables() is shared

    def test_write_through_flavours_share_by_flags(self):
        from repro.protocols.write_through import WriteThroughProtocol

        a = WriteThroughProtocol(write_allocate=True)
        b = WriteThroughProtocol(write_allocate=True, name="other")
        c = WriteThroughProtocol(write_allocate=False)
        assert a._local is b._local and a._snoop is b._snoop
        assert a._local is not c._local


class TestFuzzDifferentialEquivalence:
    """Scenario outcomes must not depend on whether the controller serves
    decisions from flat tables or consults the protocol (the path
    stateful policies and mutants always take)."""

    SEEDS = range(10)

    @staticmethod
    def _outcomes():
        from repro.fuzz.runner import run_scenario
        from repro.fuzz.scenario import generate_scenario

        outcomes = []
        for seed in TestFuzzDifferentialEquivalence.SEEDS:
            result = run_scenario(generate_scenario(seed))
            outcomes.append(
                (
                    seed,
                    result.steps_run,
                    result.transitions_checked,
                    result.ok,
                    str(result.failure),
                )
            )
        return outcomes

    @staticmethod
    def _classes_defining_static_tables():
        from repro.core.protocol import Protocol

        found, stack = [], [Protocol]
        while stack:
            cls = stack.pop()
            if "static_tables" in vars(cls):
                found.append(cls)
            stack.extend(cls.__subclasses__())
        return found

    def test_seed_sweep_identical_compiled_vs_uncompiled(self, monkeypatch):
        compiled = self._outcomes()
        for cls in self._classes_defining_static_tables():
            monkeypatch.setattr(cls, "static_tables", lambda self: None)
        assert make_protocol("illinois").static_tables() is None
        assert make_protocol("moesi").static_tables() is None
        uncompiled = self._outcomes()
        assert compiled == uncompiled
