"""Actions: what a cache does in response to a local or bus event.

Each cell of the paper's tables is written in the notation::

    result state (M, O, E, S, I), bus signals (CA, IM, BC, BS, SL, DI, CH),
    action (R, W)

with two twists this module models explicitly:

* **conditional result states** ``CH:O/M`` ("if CH then O else M") and
  ``CH:S/E`` -- the final state of the acting cache depends on whether any
  *other* cache asserted CH during the transaction;
* **compound actions** -- ``Read>Write`` (two back-to-back transactions) and
  the BS-abort sequences of the adapted foreign protocols, written in the
  paper as e.g. ``BS;S,CA,W`` (assert busy to abort the ongoing transaction,
  push the dirty line to memory, land in S; the aborted transaction then
  restarts against an up-to-date memory).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional, Union

from repro.core.signals import MasterSignals, SnoopResponse
from repro.core.states import LineState

__all__ = [
    "BusOp",
    "NextState",
    "ConditionalState",
    "LocalAction",
    "SnoopAction",
    "resolve_next_state",
]


class BusOp(enum.Enum):
    """The data-phase operation a master performs on the bus."""

    #: Issue a read on the bus (table notation ``R``).
    READ = "R"
    #: Issue a write on the bus (table notation ``W``).
    WRITE = "W"
    #: Two transactions: a read, followed by a write (``Read>Write``).
    READ_THEN_WRITE = "Read>Write"
    #: Address-only transaction (e.g. invalidate with no data transfer).
    NONE = ""

    #: Identity hash in C, like :class:`~repro.core.states.LineState`.
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclasses.dataclass(frozen=True)
class ConditionalState:
    """A result state that depends on the observed CH line.

    ``ConditionalState(LineState.OWNED, LineState.MODIFIED)`` renders as the
    paper's ``CH:O/M``: if any other cache asserted CH (it retains a copy),
    the actor lands in O; otherwise it knows it holds the sole copy and may
    take M.
    """

    if_ch: LineState
    if_not_ch: LineState

    def resolve(self, ch_observed: bool) -> LineState:
        return self.if_ch if ch_observed else self.if_not_ch

    def notation(self) -> str:
        return f"CH:{self.if_ch.letter}/{self.if_not_ch.letter}"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.notation()


#: The canonical conditional result states used by the tables.
CH_O_OR_M = ConditionalState(LineState.OWNED, LineState.MODIFIED)
CH_S_OR_E = ConditionalState(LineState.SHAREABLE, LineState.EXCLUSIVE)

NextState = Union[LineState, ConditionalState]


def resolve_next_state(next_state: NextState, ch_observed: bool) -> LineState:
    """Collapse a possibly-conditional next state given the CH observation."""
    if isinstance(next_state, ConditionalState):
        return next_state.resolve(ch_observed)
    return next_state


class MasterKind(enum.Enum):
    """Which kind of board an action in the class table is intended for.

    The paper annotates Table 1 entries with ``*`` (write-through cache) and
    ``**`` (no cache); unannotated entries belong to copy-back caches.  One
    entry (``I,IM,BC,W``) carries both annotations.
    """

    COPY_BACK = ""
    WRITE_THROUGH = "*"
    NON_CACHING = "**"
    WRITE_THROUGH_OR_NON_CACHING = "*,**"

    #: Identity hash in C, like :class:`~repro.core.states.LineState`.
    __hash__ = object.__hash__

    @property
    def includes_write_through(self) -> bool:
        return self in (
            MasterKind.WRITE_THROUGH,
            MasterKind.WRITE_THROUGH_OR_NON_CACHING,
        )

    @property
    def includes_non_caching(self) -> bool:
        return self in (
            MasterKind.NON_CACHING,
            MasterKind.WRITE_THROUGH_OR_NON_CACHING,
        )


@dataclasses.dataclass(frozen=True)
class LocalAction:
    """One permitted response to a local event (a Table 1 cell entry).

    Attributes mirror the table notation: the result state, the master
    signals to drive on the address cycle, and the bus operation (if any).
    ``bc_dont_care`` models the ``BC?`` annotation on write-backs, where the
    pushing cache may choose whether to broadcast.
    """

    next_state: NextState
    signals: MasterSignals = MasterSignals()
    bus_op: BusOp = BusOp.NONE
    bc_dont_care: bool = False
    kind: MasterKind = MasterKind.COPY_BACK

    def __post_init__(self) -> None:
        if self.bus_op is BusOp.NONE and self.signals.im and not self.signals.ca:
            raise ValueError("an address-only invalidate must assert CA")
        if self.bc_dont_care and self.signals.bc:
            raise ValueError("BC? (don't care) excludes asserting BC outright")

    @property
    def uses_bus(self) -> bool:
        """Whether this action generates at least one bus transaction."""
        return self.bus_op is not BusOp.NONE or self.signals.im or self.signals.ca

    @property
    def is_silent(self) -> bool:
        """A purely local transition with no bus activity."""
        return not self.uses_bus

    def notation(self) -> str:
        """Render in the paper's cell notation, e.g. ``CH:O/M,CA,IM,BC,W``."""
        parts = [
            self.next_state.notation()
            if isinstance(self.next_state, ConditionalState)
            else self.next_state.letter
        ]
        if self.signals.ca:
            parts.append("CA")
        if self.signals.im:
            parts.append("IM")
        if self.signals.bc:
            parts.append("BC")
        elif self.bc_dont_care:
            parts.append("BC?")
        if self.bus_op in (BusOp.READ, BusOp.WRITE):
            parts.append(self.bus_op.value)
        text = ",".join(parts)
        if self.bus_op is BusOp.READ_THEN_WRITE:
            text = BusOp.READ_THEN_WRITE.value
        return text + self.kind.value

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.notation()


@dataclasses.dataclass(frozen=True)
class SnoopAction:
    """One permitted response to a bus event (a Table 2 cell entry).

    ``abort_push`` models the BS-adapted foreign protocols: when set, the
    snooper asserts BS to abort the observed transaction, performs a
    write-back of its dirty line (optionally asserting the given master
    signals on that push), and only then takes ``next_state``; the aborted
    master subsequently retries.
    """

    next_state: NextState
    response: SnoopResponse = SnoopResponse.NONE
    abort_push: bool = False
    push_signals: Optional[MasterSignals] = None

    def __post_init__(self) -> None:
        if self.abort_push and not self.response.bs:
            raise ValueError("an abort-push action must assert BS")
        if self.push_signals is not None and not self.abort_push:
            raise ValueError("push_signals only apply to abort-push actions")

    @property
    def intervenes(self) -> bool:
        """DI asserted: this snooper preempts memory's response."""
        return self.response.di

    @property
    def connects(self) -> bool:
        """SL asserted: this snooper connects to a broadcast transfer."""
        return self.response.sl

    @property
    def retains_copy(self) -> bool:
        """Whether the snooper still holds a valid copy afterwards.

        Conditional next states on the snoop side (only O on an uncached
        read, ``CH:O/M``) always retain the copy.
        """
        if isinstance(self.next_state, ConditionalState):
            return True
        return self.next_state.valid

    def notation(self) -> str:
        """Render in the paper's cell notation, e.g. ``O,CH,DI``."""
        state_text = (
            self.next_state.notation()
            if isinstance(self.next_state, ConditionalState)
            else self.next_state.letter
        )
        if self.abort_push:
            push = self.push_signals or MasterSignals()
            push_parts = ["BS;" + state_text]
            if push.ca:
                push_parts.append("CA")
            push_parts.append("W")
            return ",".join(push_parts)
        tail = self.response.notation()
        return state_text + ("," + tail if tail else "")

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.notation()


#: The "stay invalid, no response" snoop action shared by every row-I cell.
SNOOP_IGNORE = SnoopAction(LineState.INVALID, SnoopResponse.NONE)
