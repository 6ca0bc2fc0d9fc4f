"""The write-through cache as a MOESI-class member (paper section 3.3).

A write-through cache has two states, V (valid) and I (invalid); "a write
through cache is not capable of ownership."  The paper equates its V state
with the class's S state, marks its Table-1 entries with ``*``, and
observes (items 6-8):

6. a write simply writes through, with or without broadcast; with write
   allocate, it reads first and then writes;
7. a read miss does a normal read, asserting CA;
8. snooping: reads leave it valid; broadcast writes let it update or
   invalidate; non-broadcast writes force invalidation, since it is not
   capable of intervention.

Configuration knobs mirror the class's permitted variations:

* ``broadcast_writes`` -- assert BC on write-throughs so other caches and
  memory update themselves (columns 10 vs 9 for snoopers);
* ``write_allocate`` -- on a write miss, Read>Write instead of writing
  past the cache;
* ``update_on_broadcast`` -- as a snooper, connect (SL) to broadcast
  writes rather than invalidating.
"""

from __future__ import annotations

from typing import Optional

from repro.core.actions import BusOp, LocalAction, MasterKind, SnoopAction
from repro.core.events import BusEvent, LocalEvent
from repro.core.protocol import (
    IllegalTransitionError,
    LocalContext,
    Protocol,
    SnoopContext,
)
from repro.core.signals import MasterSignals, SnoopResponse
from repro.core.states import LineState

__all__ = ["WriteThroughProtocol"]

S, I = LineState.SHAREABLE, LineState.INVALID

#: ``(broadcast_writes, write_allocate, update_on_broadcast)`` ->
#: ``(local, snoop)`` mappings; immutable once built, so every instance
#: with the same flags shares one pair.
_TABLES: dict[tuple, tuple] = {}


def _local(next_state, *, ca=False, im=False, bc=False, op=BusOp.NONE,
           kind=MasterKind.WRITE_THROUGH) -> LocalAction:
    return LocalAction(
        next_state, MasterSignals(ca=ca, im=im, bc=bc), op, kind=kind
    )


def _snoop(next_state, *, ch=False, sl=False) -> SnoopAction:
    return SnoopAction(next_state, SnoopResponse(ch=ch, sl=sl))


class WriteThroughProtocol(Protocol):
    """Two-state (V/I) write-through cache; V is the class's S state."""

    kind = MasterKind.WRITE_THROUGH
    states = frozenset({S, I})
    requires_busy = False
    paper_table = 1  # the "*" entries of Table 1

    def __init__(
        self,
        broadcast_writes: bool = True,
        write_allocate: bool = False,
        update_on_broadcast: bool = True,
        name: Optional[str] = None,
    ) -> None:
        self.broadcast_writes = broadcast_writes
        self.write_allocate = write_allocate
        self.update_on_broadcast = update_on_broadcast
        flavor = []
        flavor.append("BC" if broadcast_writes else "noBC")
        flavor.append("alloc" if write_allocate else "noalloc")
        self.name = name or f"WriteThrough({','.join(flavor)})"
        flags = (broadcast_writes, write_allocate, update_on_broadcast)
        tables = _TABLES.get(flags)
        if tables is None:
            tables = _TABLES[flags] = self._build_tables()
        self._local, self._snoop = tables

    def _build_tables(self) -> tuple[dict, dict]:
        bc = self.broadcast_writes
        # "S,IM,BC,W*" / "S,IM,W*": write past the cache, stay valid.
        hit_write = _local(S, im=True, bc=bc, op=BusOp.WRITE)
        if self.write_allocate:
            # "Read>Write*": read to V, then write through.
            miss_write = _local(S, ca=True, op=BusOp.READ_THEN_WRITE)
        else:
            # "I,IM,BC,W*" / "I,IM,W*": write past without allocating.
            miss_write = _local(I, im=True, bc=bc, op=BusOp.WRITE)
        local = {
            (S, LocalEvent.READ): _local(S),
            # "S,CA,R*": a write-through read miss asserts CA.
            (I, LocalEvent.READ): _local(S, ca=True, op=BusOp.READ),
            (S, LocalEvent.WRITE): hit_write,
            (I, LocalEvent.WRITE): miss_write,
            # Lines are never dirty; replacement is a silent drop.
            (S, LocalEvent.FLUSH): _local(I),
        }
        on_broadcast = (
            _snoop(S, ch=True, sl=True) if self.update_on_broadcast
            else _snoop(I)
        )
        snoop = {
            (S, BusEvent.CACHE_READ): _snoop(S, ch=True),
            (S, BusEvent.CACHE_READ_FOR_MODIFY): _snoop(I),
            (S, BusEvent.UNCACHED_READ): _snoop(S, ch=True),
            (S, BusEvent.CACHE_BROADCAST_WRITE): on_broadcast,
            # Not capable of intervention or ownership: must invalidate.
            (S, BusEvent.UNCACHED_WRITE): _snoop(I),
            (S, BusEvent.UNCACHED_BROADCAST_WRITE): on_broadcast,
        }
        for event in BusEvent:
            snoop[(I, event)] = _snoop(I)
        return local, snoop

    def local_action(
        self,
        state: LineState,
        event: LocalEvent,
        ctx: Optional[LocalContext] = None,
    ) -> LocalAction:
        try:
            return self._local[(state, event)]
        except KeyError:
            raise IllegalTransitionError(self.name, state, event) from None

    def snoop_action(
        self,
        state: LineState,
        event: BusEvent,
        ctx: Optional[SnoopContext] = None,
    ) -> SnoopAction:
        try:
            return self._snoop[(state, event)]
        except KeyError:
            raise IllegalTransitionError(self.name, state, event) from None

    def local_cell(self, state, event):
        action = self._local.get((state, event))
        return (action,) if action is not None else ()

    def snoop_cell(self, state, event):
        action = self._snoop.get((state, event))
        return (action,) if action is not None else ()
