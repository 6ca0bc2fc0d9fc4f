"""Reachable-transition queries over the explorer's canonical tables."""

import dataclasses

import pytest

from repro.core.events import BusEvent, LocalEvent
from repro.core.states import LineState
from repro.protocols.registry import make_protocol
from repro.verify.explorer import (
    ClassTransitionQuery,
    ProtocolTransitionQuery,
    TransitionQuery,
)

M, O, E, S, I = (
    LineState.MODIFIED,
    LineState.OWNED,
    LineState.EXCLUSIVE,
    LineState.SHAREABLE,
    LineState.INVALID,
)


class TestClassQuery:
    def test_every_protocol_cell_is_reachable(self):
        """A class member's own table is a subset of the closure."""
        query = ClassTransitionQuery()
        protocol = make_protocol("moesi")
        for state in protocol.states:
            for event in LocalEvent:
                for action in protocol.local_cell(state, event):
                    assert query.permits_local(state, event, action), (
                        f"({state}, {event}) -> {action.notation()}"
                    )

    def test_kind_narrowing_blocks_copy_back_misses(self):
        """A non-caching board may not take the allocate-and-own miss."""
        query = ClassTransitionQuery(make_protocol("non-caching").kind)
        cb_action = make_protocol("moesi").local_cell(I, LocalEvent.WRITE)[0]
        assert not query.permits_local(I, LocalEvent.WRITE, cb_action)

    def test_kind_narrowing_passes_shared_hit_rows(self):
        """Hit rows are written once for all kinds; the narrowed query
        must fall back to the shared entry instead of flagging it."""
        wt = make_protocol("write-through-alloc")
        query = ClassTransitionQuery(wt.kind)
        (action,) = wt.local_cell(S, LocalEvent.READ)
        assert query.permits_local(S, LocalEvent.READ, action)

    def test_unfiltered_query_spans_all_kinds(self):
        query = ClassTransitionQuery(None)
        for name in ("moesi", "write-through", "non-caching"):
            protocol = make_protocol(name)
            for state in protocol.states:
                for event in LocalEvent:
                    for action in protocol.local_cell(state, event):
                        assert query.permits_local(state, event, action)

    def test_reachable_sets_nonempty_for_live_cells(self):
        query = ClassTransitionQuery()
        assert query.reachable_local(I, LocalEvent.READ)
        assert query.reachable_snoop(M, BusEvent.CACHE_READ)

    def test_permits_dispatch(self):
        query = ClassTransitionQuery()
        action = make_protocol("moesi").local_cell(I, LocalEvent.READ)[0]
        assert query.permits("local", I, LocalEvent.READ, action)
        with pytest.raises(ValueError, match="unknown transition side"):
            query.permits("sideways", I, LocalEvent.READ, action)

    def test_permits_memo_keys_on_action_identity(self):
        """An equal action built separately gets its own memo entry and
        the same verdict; a repeat of either is a memo hit."""
        query = ClassTransitionQuery()
        action = make_protocol("moesi").local_cell(I, LocalEvent.READ)[0]
        twin = dataclasses.replace(action)
        assert twin == action and twin is not action
        assert query.permits("local", I, LocalEvent.READ, action)
        assert query.permits("local", I, LocalEvent.READ, twin)
        memo = query.__dict__["_permits_memo"]
        assert len(memo) == 2
        assert query.permits("local", I, LocalEvent.READ, action)
        assert len(memo) == 2

    def test_base_class_is_abstract(self):
        with pytest.raises(NotImplementedError):
            TransitionQuery().permits_local(I, LocalEvent.READ, None)


class TestProtocolQuery:
    def test_own_cells_reachable(self):
        query = ProtocolTransitionQuery("illinois")
        protocol = make_protocol("illinois")
        for state in protocol.states:
            for event in LocalEvent:
                for action in protocol.local_cell(state, event):
                    assert query.permits_local(state, event, action)
            for event in BusEvent:
                for action in protocol.snoop_cell(state, event):
                    assert query.permits_snoop(state, event, action)

    def test_foreign_table_rejects_class_only_behaviour(self):
        """Illinois has no O state: landing in O on a snooped read is a
        class behaviour its own table must reject."""
        query = ProtocolTransitionQuery("illinois")
        moesi = make_protocol("moesi")
        deviant = next(
            a for a in moesi.snoop_cell(M, BusEvent.CACHE_READ)
            if a.next_state is O
        )
        assert not query.permits_snoop(M, BusEvent.CACHE_READ, deviant)

    def test_mutated_cell_detected(self):
        """The exact acceptance-criteria deviation: an S copy surviving a
        snooped read-for-modify is not in Illinois's Table 6."""
        from repro.fuzz.scenario import resolve_spec

        query = ProtocolTransitionQuery("illinois")
        bug = resolve_spec("bug:illinois-silent-im")
        (action,) = bug.snoop_cell(S, BusEvent.CACHE_READ_FOR_MODIFY)
        assert not query.permits_snoop(
            S, BusEvent.CACHE_READ_FOR_MODIFY, action
        )

    def test_accepts_protocol_instance(self):
        protocol = make_protocol("firefly")
        query = ProtocolTransitionQuery(protocol)
        assert query.protocol is protocol
