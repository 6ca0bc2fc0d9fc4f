"""Protocol abstraction: a consistency protocol is a *selection* of actions.

The paper defines a class of protocols by giving, per (state, event), a set
of permitted actions; a concrete protocol (Berkeley, Dragon, a pure-MOESI
copy-back cache, a write-through cache, ...) is a rule for picking one
permitted action per situation.  Section 3.4 emphasizes that the selection
may vary per board, per page, per instant -- even at random -- without
compromising consistency.

:class:`Protocol` is the interface the snooping cache controller drives:

* :meth:`Protocol.local_action` -- what to do when the local processor
  reads/writes/flushes a line currently in ``state``;
* :meth:`Protocol.snoop_action` -- how to respond when another master's
  transaction for a held line appears on the bus.

:class:`TableProtocol` implements the interface from an explicit transition
table and is the base of every concrete protocol in
:mod:`repro.protocols`.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Mapping, Optional, Sequence

from repro.core.actions import LocalAction, MasterKind, SnoopAction
from repro.core.events import (
    ALL_BUS_EVENTS,
    ALL_LOCAL_EVENTS,
    BusEvent,
    LocalEvent,
)
from repro.core.states import LineState

__all__ = [
    "LocalContext",
    "SnoopContext",
    "Protocol",
    "TableProtocol",
    "IllegalTransitionError",
]


class IllegalTransitionError(Exception):
    """Raised when a protocol is driven with an event its table marks "--".

    Paper: "-- not a legal case. error condition."
    """

    def __init__(self, protocol: str, state: LineState, event) -> None:
        super().__init__(
            f"{protocol}: no legal action for event {event} in state {state}"
        )
        self.protocol = protocol
        self.state = state
        self.event = event


class ProtocolGapError(RuntimeError):
    """A snooping board observed a bus event its protocol does not define.

    This is the hole the paper warns about when running a foreign protocol
    in a mixed system: "it would be necessary to define the behavior of
    the board with respect to bus events not generated by its own
    algorithm" (section 4).  Protocols built for homogeneous systems
    (``snoop_default_to_class = False``) hit this when mixed with boards
    that generate other bus events.
    """


class LocalContext:
    """Information available to a protocol when choosing a local action.

    ``address`` lets per-page policies route (Clipper-style copy-back /
    write-through / uncacheable selection); ``sequence`` feeds round-robin
    and random policies.  A context is built for every access, so this is
    a plain slots class rather than a dataclass.
    """

    __slots__ = ("address", "sequence")

    def __init__(self, address: int = 0, sequence: int = 0) -> None:
        self.address = address
        self.sequence = sequence

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LocalContext)
            and self.address == other.address
            and self.sequence == other.sequence
        )

    def __hash__(self) -> int:
        return hash((self.address, self.sequence))


class SnoopContext:
    """Information available to a snooping protocol at address time.

    ``recency`` is the line's position in its set's replacement order,
    normalized to [0, 1] with 0 the most recently used.  The Puzak-style
    refinement of section 5.2 uses it to decide between updating a line
    written by another cache (if recently used) and discarding it (if it
    is about to be replaced anyway).

    A context is built for every snoop, but only recency-aware policies
    read ``recency``; ``recency_source`` defers the replacement-order
    probe (a ``(cache, set_index, way)`` triple) until first access.
    """

    __slots__ = ("address", "sequence", "_recency", "_recency_source")

    def __init__(
        self,
        address: int = 0,
        sequence: int = 0,
        recency: Optional[float] = None,
        recency_source: Optional[tuple] = None,
    ) -> None:
        self.address = address
        self.sequence = sequence
        self._recency = recency
        self._recency_source = recency_source

    @property
    def recency(self) -> Optional[float]:
        if self._recency is None and self._recency_source is not None:
            cache, set_index, way = self._recency_source
            self._recency = cache.recency(set_index, way)
            self._recency_source = None
        return self._recency

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SnoopContext)
            and self.address == other.address
            and self.sequence == other.sequence
            and self.recency == other.recency
        )

    def __hash__(self) -> int:
        return hash((self.address, self.sequence, self.recency))


class Protocol(abc.ABC):
    """A cache consistency protocol: one action per (state, event).

    Class attributes describe the protocol for the registry, the validator
    and the report generator.
    """

    #: Human-readable protocol name (e.g. ``"Berkeley"``).
    name: str = "abstract"
    #: Which kind of board the protocol drives.
    kind: MasterKind = MasterKind.COPY_BACK
    #: The subset of MOESI states the protocol actually uses.
    states: frozenset[LineState] = frozenset(LineState)
    #: Whether the protocol needs the BS (busy) line -- true for the
    #: adapted foreign protocols (Write-Once, Illinois, Firefly).
    requires_busy: bool = False
    #: Paper table number reproducing this protocol, if any.
    paper_table: Optional[int] = None

    @abc.abstractmethod
    def local_action(
        self,
        state: LineState,
        event: LocalEvent,
        ctx: Optional[LocalContext] = None,
    ) -> LocalAction:
        """The action taken on a local processor event."""

    @abc.abstractmethod
    def snoop_action(
        self,
        state: LineState,
        event: BusEvent,
        ctx: Optional[SnoopContext] = None,
    ) -> SnoopAction:
        """The response to an observed bus event."""

    def static_tables(self) -> Optional[tuple[tuple, tuple]]:
        """The flat ``(local, snoop)`` action tables, when this protocol's
        choice never depends on the context or on earlier choices.

        Indexed like :mod:`repro.core.transitions`' compiled tables
        (``state.code * 4 + event.code`` and ``state.code * 6 +
        event.code``), ``None`` in illegal cells.  The controller serves
        every decision straight from them; ``None`` (the default) keeps
        it calling :meth:`local_action`/:meth:`snoop_action` with a
        context."""
        return None

    # ------------------------------------------------------------------
    # Introspection used by the validator and the table generator.
    # ------------------------------------------------------------------
    def local_cell(
        self, state: LineState, event: LocalEvent
    ) -> tuple[LocalAction, ...]:
        """All actions this protocol may take for (state, event).

        The default assumes a deterministic protocol and probes
        :meth:`local_action`; policy-driven protocols override this to
        report their full choice set (what the paper prints in one table
        cell joined by "or").
        """
        try:
            return (self.local_action(state, event, LocalContext()),)
        except IllegalTransitionError:
            return ()

    def snoop_cell(
        self, state: LineState, event: BusEvent
    ) -> tuple[SnoopAction, ...]:
        try:
            return (self.snoop_action(state, event, SnoopContext()),)
        except IllegalTransitionError:
            return ()

    def local_table(self) -> dict[tuple[LineState, LocalEvent], tuple[LocalAction, ...]]:
        """The full local-event transition table (for rendering/diffing)."""
        return {
            (state, event): self.local_cell(state, event)
            for state in sorted(self.states, key=_state_order)
            for event in ALL_LOCAL_EVENTS
        }

    def snoop_table(self) -> dict[tuple[LineState, BusEvent], tuple[SnoopAction, ...]]:
        return {
            (state, event): self.snoop_cell(state, event)
            for state in sorted(self.states, key=_state_order)
            for event in ALL_BUS_EVENTS
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


_STATE_ORDER = {
    LineState.MODIFIED: 0,
    LineState.OWNED: 1,
    LineState.EXCLUSIVE: 2,
    LineState.SHAREABLE: 3,
    LineState.INVALID: 4,
}


def _state_order(state: LineState) -> int:
    return _STATE_ORDER[state]


#: Attributes that, set on an instance, give it tables of its own.
_OWN_TABLE_ATTRS = frozenset(
    ("local_transitions", "snoop_transitions", "snoop_default_to_class")
)
#: Per :class:`TableProtocol` subclass: ``(local mapping, snoop mapping,
#: compiled tables)``.  The mappings are the class's own objects, checked
#: by identity on every hit, so rebinding a class mapping recompiles.
_SHARED_FAST_TABLES: dict[type, tuple] = {}


class TableProtocol(Protocol):
    """A deterministic protocol defined by explicit transition tables.

    Concrete protocols supply two mappings, mirroring the structure of the
    paper's per-protocol tables (3-7).  Missing cells are illegal ("--");
    missing *snoop* cells for events a protocol never generates in its own
    closed system default to a safe MOESI-class response when
    ``snoop_default_to_class`` is set (used when running a foreign protocol
    in a mixed system, see paper section 4: "it would be necessary to
    define the behavior of the board with respect to bus events not
    generated by its own algorithm").
    """

    local_transitions: Mapping[
        tuple[LineState, LocalEvent], LocalAction
    ] = {}
    snoop_transitions: Mapping[tuple[LineState, BusEvent], SnoopAction] = {}
    #: Fallback for bus events absent from :attr:`snoop_transitions`.
    snoop_default_to_class: bool = False
    #: Lazily compiled flat tables (see :mod:`repro.core.transitions`):
    #: ``(local, snoop)`` tuples indexed by interned state/event codes.
    _fast_tables = None

    def _compile_fast_tables(self):
        """Compile (and verify) the flat tables on first use.

        Instances that drive their class's own mappings share one
        verified pair per class (:data:`_SHARED_FAST_TABLES`); an
        instance that sets its own mappings compiles its own."""
        from repro.core.transitions import compile_deterministic

        cls = type(self)
        shared = not _OWN_TABLE_ATTRS.intersection(self.__dict__)
        entry = _SHARED_FAST_TABLES.get(cls) if shared else None
        if (
            entry is not None
            and entry[0] is cls.local_transitions
            and entry[1] is cls.snoop_transitions
        ):
            tables = entry[2]
        else:
            fallback = (
                self._class_snoop_fallback
                if self.snoop_default_to_class
                else None
            )
            tables = compile_deterministic(
                self.local_transitions, self.snoop_transitions, fallback
            )
            if shared:
                _SHARED_FAST_TABLES[cls] = (
                    cls.local_transitions, cls.snoop_transitions, tables
                )
        self._fast_tables = tables
        return tables

    def static_tables(self) -> Optional[tuple[tuple, tuple]]:
        """The compiled flat tables, unless a subclass overrides the
        lookups."""
        cls = type(self)
        if (
            cls.local_action is not TableProtocol.local_action
            or cls.snoop_action is not TableProtocol.snoop_action
        ):
            return None
        return self._fast_tables or self._compile_fast_tables()

    def local_action(
        self,
        state: LineState,
        event: LocalEvent,
        ctx: Optional[LocalContext] = None,
    ) -> LocalAction:
        tables = self._fast_tables or self._compile_fast_tables()
        action = tables[0][state.code * 4 + event.code]
        if action is None:
            raise IllegalTransitionError(self.name, state, event)
        return action

    def snoop_action(
        self,
        state: LineState,
        event: BusEvent,
        ctx: Optional[SnoopContext] = None,
    ) -> SnoopAction:
        tables = self._fast_tables or self._compile_fast_tables()
        action = tables[1][state.code * 6 + event.code]
        if action is None:
            raise IllegalTransitionError(self.name, state, event)
        return action

    @staticmethod
    def _class_snoop_fallback(
        state: LineState, event: BusEvent
    ) -> Optional[SnoopAction]:
        # Imported lazily to avoid a circular import at module load.
        from repro.core.transitions import snoop_choices

        choices = snoop_choices(state, event)
        return choices[0] if choices else None

    def local_cell(
        self, state: LineState, event: LocalEvent
    ) -> tuple[LocalAction, ...]:
        action = self.local_transitions.get((state, event))
        return (action,) if action is not None else ()

    def snoop_cell(
        self, state: LineState, event: BusEvent
    ) -> tuple[SnoopAction, ...]:
        action = self.snoop_transitions.get((state, event))
        return (action,) if action is not None else ()
