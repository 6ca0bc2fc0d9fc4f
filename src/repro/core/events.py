"""Local processor events and observed bus events.

The paper's tables are indexed by ten numbered event columns (see "Notes on
Tables").  Columns 1-4 are **local events** generated by the processor
attached to a cache; columns 5-10 are **bus events** observed by every other
unit, fully determined by the transaction master's (CA, IM, BC) signals:

====  ===============  =========================================================
note  signals          meaning
====  ===============  =========================================================
1     --               read by local processor
2     --               write by local processor
3     --               push of dirty line by local processor, keep copy
4     --               push dirty line and discard copy
5     CA,~IM,~BC       read by cache master on bus (including write-through)
6     CA,IM,~BC        read-for-modify by cache master (write miss by a
                       copy-back cache) or address-only invalidate signal
7     ~CA,~IM,~BC      read by processor without cache
8     CA,IM,BC         broadcast write by cache master
9     ~CA,IM,~BC       write by processor without cache or write past a
                       write-through cache
10    ~CA,IM,BC        broadcast write by non-cache processor or write past a
                       write-through cache
====  ===============  =========================================================
"""

from __future__ import annotations

import enum

from repro.core.signals import MasterSignals

__all__ = ["LocalEvent", "BusEvent", "ALL_BUS_EVENTS", "ALL_LOCAL_EVENTS"]


class LocalEvent(enum.Enum):
    """An event generated by the processor local to a cache (notes 1-4)."""

    READ = 1
    WRITE = 2
    #: Push (write back) a dirty line to memory but keep the copy.
    PASS = 3
    #: Push a dirty line to memory and discard the copy (also used for plain
    #: eviction of clean lines).
    FLUSH = 4

    #: Identity hash in C, like :class:`~repro.core.states.LineState`.
    __hash__ = object.__hash__

    @property
    def note(self) -> int:
        """The paper's table column note number (1-4)."""
        return self.value

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name.capitalize()


for _event in LocalEvent:
    #: Interned integer id (0..3): the column index of the compiled flat
    #: local-transition tables in :mod:`repro.core.transitions`.
    _event.code = _event.value - 1
del _event


class BusEvent(enum.Enum):
    """A bus transaction as observed by a snooping third party (notes 5-10).

    Members carry the paper's note number as value; the (CA, IM, BC)
    signature is available via :attr:`master_signals`.
    """

    #: CA,~IM,~BC -- read by a cache master (copy-back or write-through).
    CACHE_READ = 5
    #: CA,IM,~BC -- read-for-modify by a cache master (write miss of a
    #: copy-back cache), or an address-only invalidate.
    CACHE_READ_FOR_MODIFY = 6
    #: ~CA,~IM,~BC -- read by a processor without a cache.
    UNCACHED_READ = 7
    #: CA,IM,BC -- broadcast write by a cache master.
    CACHE_BROADCAST_WRITE = 8
    #: ~CA,IM,~BC -- non-broadcast write by a non-caching processor or a
    #: write passing through a write-through cache.
    UNCACHED_WRITE = 9
    #: ~CA,IM,BC -- broadcast write by a non-caching processor or a
    #: write-through cache.
    UNCACHED_BROADCAST_WRITE = 10

    #: Identity hash in C, like :class:`~repro.core.states.LineState`.
    __hash__ = object.__hash__

    @property
    def note(self) -> int:
        """The paper's table column note number (5-10)."""
        return self.value

    @property
    def master_signals(self) -> MasterSignals:
        """The (CA, IM, BC) triple that produces this event on the bus."""
        return _EVENT_SIGNALS[self]

    @classmethod
    def from_signals(cls, signals: MasterSignals) -> "BusEvent":
        """Classify a master's signal triple into one of the six events.

        BC is only significant on writes (IM asserted): a *broadcast push*
        (write-back with BC, IM deasserted) does not modify the data, so
        snoopers classify it exactly like the corresponding non-modifying
        access (column 5 or 7).
        """
        bc = signals.bc and signals.im
        return _SIGNALS_TO_EVENT[(signals.ca, signals.im, bc)]

    @property
    def is_read(self) -> bool:
        """Whether the master is reading (IM not asserted)."""
        return not self.master_signals.im

    @property
    def is_write(self) -> bool:
        return self.master_signals.im

    @property
    def is_broadcast(self) -> bool:
        return self.master_signals.bc

    @property
    def by_cache_master(self) -> bool:
        return self.master_signals.ca

    def notation(self) -> str:
        """The paper's column heading, e.g. ``CA,~IM,~BC``."""
        return self.master_signals.notation()

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.notation()} (col {self.note})"


for _event in BusEvent:
    #: Interned integer id (0..5): the column index of the compiled flat
    #: snoop-transition tables in :mod:`repro.core.transitions`.
    _event.code = _event.value - 5
del _event


_EVENT_SIGNALS: dict[BusEvent, MasterSignals] = {
    BusEvent.CACHE_READ: MasterSignals(ca=True, im=False, bc=False),
    BusEvent.CACHE_READ_FOR_MODIFY: MasterSignals(ca=True, im=True, bc=False),
    BusEvent.UNCACHED_READ: MasterSignals(ca=False, im=False, bc=False),
    BusEvent.CACHE_BROADCAST_WRITE: MasterSignals(ca=True, im=True, bc=True),
    BusEvent.UNCACHED_WRITE: MasterSignals(ca=False, im=True, bc=False),
    BusEvent.UNCACHED_BROADCAST_WRITE: MasterSignals(ca=False, im=True, bc=True),
}

_SIGNALS_TO_EVENT = {
    (s.ca, s.im, s.bc): event for event, s in _EVENT_SIGNALS.items()
}

#: All bus events in paper column order.
ALL_BUS_EVENTS: tuple[BusEvent, ...] = (
    BusEvent.CACHE_READ,
    BusEvent.CACHE_READ_FOR_MODIFY,
    BusEvent.UNCACHED_READ,
    BusEvent.CACHE_BROADCAST_WRITE,
    BusEvent.UNCACHED_WRITE,
    BusEvent.UNCACHED_BROADCAST_WRITE,
)

#: All local events in paper column order.
ALL_LOCAL_EVENTS: tuple[LocalEvent, ...] = (
    LocalEvent.READ,
    LocalEvent.WRITE,
    LocalEvent.PASS,
    LocalEvent.FLUSH,
)
