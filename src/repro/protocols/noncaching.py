"""Non-caching bus masters, e.g. I/O processors (paper section 3.3).

"Our protocol also applies to processors without caches ... Such a
processor writes with or without broadcast (as with a write through
cache), and reads without asserting CA.  A non-caching unit never responds
to bus events."  These are the ``**`` entries of Table 1.

A non-caching unit has a single (conceptual) state I: it retains nothing,
so every access goes to the bus and every snoop is a silent no-op.
"""

from __future__ import annotations

from typing import Optional

from repro.core.actions import (
    SNOOP_IGNORE,
    BusOp,
    LocalAction,
    MasterKind,
    SnoopAction,
)
from repro.core.events import BusEvent, LocalEvent
from repro.core.protocol import (
    IllegalTransitionError,
    LocalContext,
    Protocol,
    SnoopContext,
)
from repro.core.signals import MasterSignals
from repro.core.states import LineState

__all__ = ["NonCachingProtocol"]

I = LineState.INVALID

# Actions are immutable, so every instance shares them.
# "I,R**": read without asserting CA (bus event column 7).
_READ = LocalAction(I, MasterSignals(), BusOp.READ,
                    kind=MasterKind.NON_CACHING)
# "I,IM,BC,W**" / "I,IM,W**" (bus event columns 10 / 9), by broadcast flag.
_WRITE = {
    bc: LocalAction(
        I, MasterSignals(im=True, bc=bc), BusOp.WRITE,
        kind=MasterKind.NON_CACHING,
    )
    for bc in (False, True)
}


class NonCachingProtocol(Protocol):
    """A board with no cache: reads without CA, writes past, never snoops."""

    kind = MasterKind.NON_CACHING
    states = frozenset({I})
    requires_busy = False
    paper_table = 1  # the "**" entries of Table 1

    def __init__(
        self, broadcast_writes: bool = False, name: Optional[str] = None
    ) -> None:
        self.broadcast_writes = broadcast_writes
        self.name = name or (
            "NonCaching(BC)" if broadcast_writes else "NonCaching"
        )
        self._read = _READ
        self._write = _WRITE[bool(broadcast_writes)]

    def local_action(
        self,
        state: LineState,
        event: LocalEvent,
        ctx: Optional[LocalContext] = None,
    ) -> LocalAction:
        if state is not I:
            raise IllegalTransitionError(self.name, state, event)
        if event is LocalEvent.READ:
            return self._read
        if event is LocalEvent.WRITE:
            return self._write
        raise IllegalTransitionError(self.name, state, event)

    def snoop_action(
        self,
        state: LineState,
        event: BusEvent,
        ctx: Optional[SnoopContext] = None,
    ) -> SnoopAction:
        # "A non-caching unit never responds to bus events."
        return SNOOP_IGNORE

    def local_cell(self, state, event):
        if state is I and event is LocalEvent.READ:
            return (self._read,)
        if state is I and event is LocalEvent.WRITE:
            return (self._write,)
        return ()

    def snoop_cell(self, state, event):
        return (SNOOP_IGNORE,)
