"""The full MOESI copy-back protocol, parameterized by a selection policy.

This is the paper's own protocol (Tables 1 and 2 restricted to the
copy-back entries).  The constructor's policy decides, per event, among
the permitted choices -- the preferred policy reproduces the first entry
of every cell; the invalidate/update/random/round-robin policies realize
the alternatives section 3.4 declares equally safe.
"""

from __future__ import annotations

from typing import Optional

from repro.core.actions import LocalAction, MasterKind, SnoopAction
from repro.core.events import BusEvent, LocalEvent
from repro.core.policy import (
    ActionPolicy,
    InvalidatePolicy,
    PreferredPolicy,
    UpdatePolicy,
)
from repro.core.protocol import (
    IllegalTransitionError,
    LocalContext,
    Protocol,
    SnoopContext,
)
from repro.core.states import LineState
from repro.core.transitions import local_choices, snoop_choices

__all__ = ["MoesiProtocol"]

#: Policies whose pick is a pure function of the cell (no context, no
#: history).  A board running one of them -- the class itself, not a
#: subclass -- is served from flat tables (:meth:`Protocol.static_tables`).
_STATELESS_POLICIES = (PreferredPolicy, InvalidatePolicy, UpdatePolicy)
#: Their flat tables, built once per policy class.
_STATIC_TABLES: dict[type, tuple[tuple, tuple]] = {}


class MoesiProtocol(Protocol):
    """Copy-back cache using the full five-state MOESI class tables.

    Parameters
    ----------
    policy:
        Selection rule over each cell's permitted actions.  Defaults to the
        paper-preferred choices.
    name:
        Override the display name (useful when instantiating several
        differently-configured members for a comparison run).
    """

    kind = MasterKind.COPY_BACK
    states = frozenset(LineState)
    paper_table = 1  # Tables 1 and 2

    def __init__(
        self,
        policy: Optional[ActionPolicy] = None,
        name: Optional[str] = None,
    ) -> None:
        self.policy = policy or PreferredPolicy()
        self.name = name or f"MOESI({self.policy.name})"

    def static_tables(self) -> Optional[tuple[tuple, tuple]]:
        """The stateless policy's picks as flat tables (``None`` for any
        other policy)."""
        cls = type(self)
        policy_cls = type(self.policy)
        if (
            policy_cls not in _STATELESS_POLICIES
            or cls.local_action is not MoesiProtocol.local_action
            or cls.snoop_action is not MoesiProtocol.snoop_action
        ):
            return None
        tables = _STATIC_TABLES.get(policy_cls)
        if tables is None:
            tables = _STATIC_TABLES[policy_cls] = _policy_tables(self.policy)
        return tables

    def local_action(
        self,
        state: LineState,
        event: LocalEvent,
        ctx: Optional[LocalContext] = None,
    ) -> LocalAction:
        choices = local_choices(state, event, MasterKind.COPY_BACK)
        if not choices:
            raise IllegalTransitionError(self.name, state, event)
        return self.policy.choose_local(state, event, choices, ctx)

    def snoop_action(
        self,
        state: LineState,
        event: BusEvent,
        ctx: Optional[SnoopContext] = None,
    ) -> SnoopAction:
        choices = snoop_choices(state, event)
        if not choices:
            raise IllegalTransitionError(self.name, state, event)
        return self.policy.choose_snoop(state, event, choices, ctx)

    # The table generator reports the *full* choice sets, which is what the
    # paper prints (entries joined by "or").
    def local_cell(
        self, state: LineState, event: LocalEvent
    ) -> tuple[LocalAction, ...]:
        return local_choices(state, event, MasterKind.COPY_BACK)

    def snoop_cell(
        self, state: LineState, event: BusEvent
    ) -> tuple[SnoopAction, ...]:
        return snoop_choices(state, event)


def _policy_tables(policy: ActionPolicy) -> tuple[tuple, tuple]:
    """Flat ``(local, snoop)`` tables of a stateless policy's picks over
    the copy-back class cells (``None`` where a cell is empty)."""
    local: list = [None] * (len(LineState) * len(LocalEvent))
    snoop: list = [None] * (len(LineState) * len(BusEvent))
    for state in LineState:
        for event in LocalEvent:
            choices = local_choices(state, event, MasterKind.COPY_BACK)
            if choices:
                local[state.code * 4 + event.code] = policy.choose_local(
                    state, event, choices
                )
        for event in BusEvent:
            choices = snoop_choices(state, event)
            if choices:
                snoop[state.code * 6 + event.code] = policy.choose_snoop(
                    state, event, choices
                )
    return tuple(local), tuple(snoop)
