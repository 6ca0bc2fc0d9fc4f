"""Bus transactions and their observable results."""

from __future__ import annotations

import dataclasses
from typing import NamedTuple, Optional

from repro.core.actions import BusOp
from repro.core.events import BusEvent
from repro.core.signals import MasterSignals, ResponseAggregate

__all__ = ["Transaction", "TransactionResult"]


@dataclasses.dataclass(slots=True, init=False)
class Transaction:
    """One bus transaction: a broadcast address cycle plus a data phase.

    ``value`` carries the written data token on writes (the reproduction
    tracks line data as opaque version tokens, which is all coherence
    checking needs); on reads it is filled in by the supplier.
    """

    master: str
    address: int
    signals: MasterSignals
    op: BusOp
    value: Optional[int] = None
    retries: int = 0
    #: Sequence number assigned by the bus, for tracing.
    serial: int = 0
    #: How snooping third parties classify this transaction: every
    #: snooper on every retry reads it.  ``signals`` never changes, and
    #: each :class:`MasterSignals` caches its own classification
    #: (:attr:`MasterSignals.event`), so construction is one attribute
    #: read.
    event: BusEvent

    def __init__(
        self,
        master: str,
        address: int,
        signals: MasterSignals,
        op: BusOp,
        value: Optional[int] = None,
        retries: int = 0,
        serial: int = 0,
    ) -> None:
        self.master = master
        self.address = address
        self.signals = signals
        self.op = op
        self.value = value
        self.retries = retries
        self.serial = serial
        self.event = signals.event

    def describe(self) -> str:
        op = self.op.value or "addr-only"
        return (
            f"#{self.serial} {self.master} {self.signals.notation()} "
            f"{op} @0x{self.address:x}"
        )

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.describe()


class TransactionResult(NamedTuple):
    """Outcome of a completed (possibly retried) transaction.

    An immutable named tuple: the bus builds one per transaction, and a
    frozen dataclass would pay a Python ``__init__`` and one
    ``object.__setattr__`` per field for it."""

    aggregate: ResponseAggregate
    #: Data returned to the master on reads (None for writes/addr-only).
    value: Optional[int]
    #: Unit that supplied read data ("memory" or a cache's unit id).
    supplier: Optional[str]
    #: Number of BS aborts suffered before completion.
    retries: int
    #: Third parties that SL-connected to the data phase.
    connectors: tuple[str, ...] = ()
    #: Total bus occupancy in nanoseconds (aborts + pushes + final try).
    duration_ns: float = 0.0

    @property
    def shared(self) -> bool:
        """CH observed: some other cache retains a copy."""
        return self.aggregate.ch

    @property
    def intervened(self) -> bool:
        return self.aggregate.di
