"""Tests for actions, conditional result states, and cell notation."""

import pytest

from repro.core.actions import (
    CH_O_OR_M,
    CH_S_OR_E,
    BusOp,
    ConditionalState,
    LocalAction,
    MasterKind,
    SnoopAction,
    resolve_next_state,
)
from repro.core.signals import MasterSignals, SnoopResponse
from repro.core.states import LineState

M, O, E, S, I = (
    LineState.MODIFIED,
    LineState.OWNED,
    LineState.EXCLUSIVE,
    LineState.SHAREABLE,
    LineState.INVALID,
)


class TestConditionalState:
    def test_ch_o_or_m_resolution(self):
        """CH:O/M -- if another cache retains a copy, land O, else M."""
        assert CH_O_OR_M.resolve(True) is O
        assert CH_O_OR_M.resolve(False) is M

    def test_ch_s_or_e_resolution(self):
        assert CH_S_OR_E.resolve(True) is S
        assert CH_S_OR_E.resolve(False) is E

    def test_notation(self):
        assert CH_O_OR_M.notation() == "CH:O/M"
        assert CH_S_OR_E.notation() == "CH:S/E"

    def test_resolve_next_state_passthrough(self):
        assert resolve_next_state(M, True) is M
        assert resolve_next_state(CH_S_OR_E, True) is S

    def test_custom_conditional(self):
        cond = ConditionalState(S, M)
        assert cond.notation() == "CH:S/M"


class TestLocalActionNotation:
    """Notation must round-trip the paper's cell syntax."""

    def test_silent(self):
        assert LocalAction(M).notation() == "M"

    def test_broadcast_write(self):
        action = LocalAction(
            CH_O_OR_M, MasterSignals(True, True, True), BusOp.WRITE
        )
        assert action.notation() == "CH:O/M,CA,IM,BC,W"

    def test_address_only_invalidate(self):
        action = LocalAction(M, MasterSignals(ca=True, im=True), BusOp.NONE)
        assert action.notation() == "M,CA,IM"

    def test_push_with_bc_dont_care(self):
        action = LocalAction(
            E, MasterSignals(ca=True), BusOp.WRITE, bc_dont_care=True
        )
        assert action.notation() == "E,CA,BC?,W"

    def test_read_miss(self):
        action = LocalAction(CH_S_OR_E, MasterSignals(ca=True), BusOp.READ)
        assert action.notation() == "CH:S/E,CA,R"

    def test_read_then_write(self):
        action = LocalAction(
            CH_S_OR_E, MasterSignals(ca=True), BusOp.READ_THEN_WRITE
        )
        assert action.notation() == "Read>Write"

    def test_write_through_annotation(self):
        action = LocalAction(
            S,
            MasterSignals(im=True, bc=True),
            BusOp.WRITE,
            kind=MasterKind.WRITE_THROUGH,
        )
        assert action.notation() == "S,IM,BC,W*"

    def test_shared_annotation(self):
        action = LocalAction(
            I,
            MasterSignals(im=True),
            BusOp.WRITE,
            kind=MasterKind.WRITE_THROUGH_OR_NON_CACHING,
        )
        assert action.notation() == "I,IM,W*,**"

    def test_non_caching_read(self):
        action = LocalAction(
            I, MasterSignals(), BusOp.READ, kind=MasterKind.NON_CACHING
        )
        assert action.notation() == "I,R**"


class TestLocalActionValidation:
    def test_silent_predicate(self):
        assert LocalAction(M).is_silent
        assert not LocalAction(
            M, MasterSignals(ca=True, im=True), BusOp.NONE
        ).is_silent

    def test_uses_bus_for_read(self):
        assert LocalAction(S, MasterSignals(ca=True), BusOp.READ).uses_bus

    def test_address_only_without_ca_rejected(self):
        """An address-only invalidate must identify a cache master."""
        with pytest.raises(ValueError):
            LocalAction(M, MasterSignals(im=True), BusOp.NONE)

    def test_bc_dont_care_excludes_bc(self):
        with pytest.raises(ValueError):
            LocalAction(
                E,
                MasterSignals(ca=True, bc=True, im=True),
                BusOp.WRITE,
                bc_dont_care=True,
            )


class TestSnoopActionNotation:
    def test_intervene(self):
        action = SnoopAction(O, SnoopResponse(ch=True, di=True))
        assert action.notation() == "O,CH,DI"

    def test_dont_care(self):
        action = SnoopAction(M, SnoopResponse(ch=None, di=True))
        assert action.notation() == "M,CH?,DI"

    def test_silent_invalidate(self):
        assert SnoopAction(I).notation() == "I"

    def test_conditional_snoop(self):
        action = SnoopAction(CH_O_OR_M, SnoopResponse(di=True))
        assert action.notation() == "CH:O/M,DI"

    def test_abort_push(self):
        action = SnoopAction(
            S,
            SnoopResponse(bs=True),
            abort_push=True,
            push_signals=MasterSignals(ca=True),
        )
        assert action.notation() == "BS;S,CA,W"


class TestSnoopActionValidation:
    def test_abort_requires_bs(self):
        with pytest.raises(ValueError):
            SnoopAction(S, SnoopResponse(), abort_push=True)

    def test_push_signals_require_abort(self):
        with pytest.raises(ValueError):
            SnoopAction(
                S, SnoopResponse(bs=True), push_signals=MasterSignals(ca=True)
            )

    @pytest.mark.parametrize(
        "state,retains",
        [(M, True), (O, True), (E, True), (S, True), (I, False)],
    )
    def test_retains_copy(self, state, retains):
        assert SnoopAction(state).retains_copy is retains

    def test_conditional_retains(self):
        assert SnoopAction(CH_O_OR_M, SnoopResponse(di=True)).retains_copy

    def test_connects_predicate(self):
        assert SnoopAction(S, SnoopResponse(sl=True, ch=True)).connects


class TestMasterKind:
    def test_copy_back_includes_nothing_extra(self):
        kind = MasterKind.COPY_BACK
        assert not kind.includes_write_through
        assert not kind.includes_non_caching

    def test_shared_kind(self):
        kind = MasterKind.WRITE_THROUGH_OR_NON_CACHING
        assert kind.includes_write_through and kind.includes_non_caching


def _all_local_actions():
    """Every action of every registered protocol's Table 1 and of the
    compiled full-class closure, plus every constructible signal/bus-op
    combination (some, such as CA alone with no data phase, appear in no
    table)."""
    import itertools

    from repro.core.transitions import compiled_class_cells
    from repro.protocols.registry import make_protocol, protocol_names

    actions = set()
    for ca, im, bc, dont_care, op in itertools.product(
        (False, True), (False, True), (False, True), (False, True), BusOp
    ):
        try:
            actions.add(LocalAction(
                S, MasterSignals(ca=ca, im=im, bc=bc), op,
                bc_dont_care=dont_care,
            ))
        except ValueError:
            pass
    for name in protocol_names():
        for cell in make_protocol(name).local_table().values():
            actions.update(cell)
    for cell in compiled_class_cells().local:
        actions.update(cell)
    return sorted(actions, key=LocalAction.notation)


class TestStoredBusFlags:
    """``uses_bus``/``is_silent`` are computed once at construction and
    stored as plain attributes outside the dataclass fields."""

    def test_flags_match_the_formula_on_every_action(self):
        actions = _all_local_actions()
        assert len(actions) > 20
        for action in actions:
            uses_bus = (
                action.bus_op is not BusOp.NONE
                or action.signals.im
                or action.signals.ca
            )
            assert action.uses_bus is bool(uses_bus), action.notation()
            assert action.is_silent is (not uses_bus), action.notation()

    def test_flags_are_not_fields(self):
        import dataclasses

        assert [f.name for f in dataclasses.fields(LocalAction)] == [
            "next_state", "signals", "bus_op", "bc_dont_care", "kind",
        ]
        action = LocalAction(S, MasterSignals(ca=True), BusOp.READ)
        assert "uses_bus" not in repr(action)
        assert "uses_bus" not in dataclasses.asdict(action)

    def test_equality_hash_and_pickling_unchanged(self):
        import dataclasses
        import pickle

        for action in _all_local_actions():
            fields = tuple(
                getattr(action, f.name) for f in dataclasses.fields(action)
            )
            assert hash(action) == hash(fields)
            twin = dataclasses.replace(action)
            assert twin == action and hash(twin) == hash(action)
            clone = pickle.loads(pickle.dumps(action))
            assert clone == action and hash(clone) == hash(action)
            assert clone.uses_bus is action.uses_bus
            assert clone.is_silent is action.is_silent
            assert clone.notation() == action.notation()
        assert LocalAction(M) != LocalAction(
            M, MasterSignals(ca=True, im=True)
        )

    def test_assignment_still_raises(self):
        import dataclasses

        action = LocalAction(M)
        for name in ("uses_bus", "is_silent", "next_state"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(action, name, True)
