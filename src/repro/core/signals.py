"""Futurebus consistency signal lines (paper section 3.2).

Two groups of lines are defined:

**Cache master signals**, asserted by the unit that owns the transaction
during the broadcast address cycle:

* ``CA`` -- *cache master*: "I am a copy-back cache and at the end of this
  transaction I will retain a copy of the referenced data, or I am a
  write-through cache and have just read this data."
* ``IM`` -- *intent to modify*: "in this transaction I will modify the
  referenced data."
* ``BC`` -- *broadcast*: "if I do modify the data, I will place the
  modifications on the bus so that you and/or the memory can update itself."

**Response signals**, asserted wired-OR by any other unit during the address
handshake:

* ``CH`` -- *cache hit*: "I have a copy of the referenced data, which I will
  retain at the end of this transaction."
* ``DI`` -- *data intervention*: the asserting unit owns the line and
  preempts the response from memory.
* ``SL`` -- *select*: a third party (slave cache or memory) connects to a
  broadcast transfer to update its own copy.
* ``BS`` -- *busy*: aborts the transaction; needed only by adapted foreign
  protocols (Write-Once, Illinois, Firefly) that require memory to be
  updated during an intervenient transfer, which the Futurebus cannot do
  directly.

Because every bus line is open-collector ("drive low, float high"), the
observed value of each response line is the logical OR over all responders;
:class:`ResponseAggregate` performs that reduction.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
from typing import Iterable, Optional

__all__ = [
    "MasterSignals",
    "SnoopResponse",
    "ResponseAggregate",
    "SignalLine",
]


class SignalLine(enum.Enum):
    """Names of the seven consistency signal lines on the backplane."""

    CA = "CA"
    IM = "IM"
    BC = "BC"
    CH = "CH"
    DI = "DI"
    SL = "SL"
    BS = "BS"

    @property
    def is_master_signal(self) -> bool:
        return self in (SignalLine.CA, SignalLine.IM, SignalLine.BC)

    @property
    def is_response_signal(self) -> bool:
        return not self.is_master_signal

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclasses.dataclass(frozen=True)
class MasterSignals:
    """The (CA, IM, BC) triple asserted by the transaction master.

    The triple fully determines which of the paper's bus-event columns
    (notes 5-10 of the tables) the other units observe; see
    :func:`repro.core.events.BusEvent.from_signals`.
    """

    ca: bool = False
    im: bool = False
    bc: bool = False

    # Note: BC without IM is permitted.  The paper's tables only enumerate
    # BC together with IM (columns 8 and 10), but the write-back ("push")
    # entries of Table 1 carry a ``BC?`` annotation with IM *not* asserted:
    # a push copies data to memory without modifying it, and the pusher may
    # choose to broadcast the transfer so third parties can refresh
    # themselves.  Snoopers classify such a transfer like a non-modifying
    # access (see :meth:`repro.core.events.BusEvent.from_signals`).

    @functools.cached_property
    def event(self):
        """The :class:`~repro.core.events.BusEvent` snoopers observe,
        classified once per instance: every transaction reads it, and an
        action's signals are built once with its table."""
        from repro.core.events import BusEvent

        return BusEvent.from_signals(self)

    @property
    def is_write(self) -> bool:
        """IM asserted: the master will modify the referenced data."""
        return self.im

    @property
    def is_broadcast(self) -> bool:
        """BC asserted: modifications will be placed on the bus."""
        return self.bc

    def notation(self) -> str:
        """Render in the paper's table-heading notation, e.g. ``CA,~IM,~BC``."""
        parts = []
        for name, value in (("CA", self.ca), ("IM", self.im), ("BC", self.bc)):
            parts.append(name if value else "~" + name)
        return ",".join(parts)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.notation()


@dataclasses.dataclass(frozen=True)
class SnoopResponse:
    """Response-line assertions contributed by one snooping unit.

    ``ch`` may be ``None`` to express the paper's ``CH?`` ("don't care")
    entries -- cases where no other unit would be listening so the value of
    the line does not matter.  The aggregate treats ``None`` as
    not-asserted; the table-diff machinery preserves the distinction.
    """

    ch: Optional[bool] = False
    di: bool = False
    sl: bool = False
    bs: bool = False

    NONE: "SnoopResponse" = None  # type: ignore[assignment]  # set below

    @property
    def asserts_anything(self) -> bool:
        return bool(self.ch) or self.di or self.sl or self.bs

    def notation(self) -> str:
        """Signals in table notation, e.g. ``CH,DI`` or '' for silence."""
        parts = []
        if self.ch is None:
            parts.append("CH?")
        elif self.ch:
            parts.append("CH")
        if self.di:
            parts.append("DI")
        if self.sl:
            parts.append("SL")
        if self.bs:
            parts.append("BS")
        return ",".join(parts)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.notation() or "(none)"


SnoopResponse.NONE = SnoopResponse()


@dataclasses.dataclass(frozen=True)
class ResponseAggregate:
    """Wired-OR reduction of every unit's response-line contribution.

    On the physical bus each open-collector line is pulled low by any
    asserting driver, so the master (and every third party) observes the OR
    over all responders.  ``CH?`` don't-cares contribute nothing.
    """

    ch: bool = False
    di: bool = False
    sl: bool = False
    bs: bool = False

    @classmethod
    def of(cls, responses: Iterable[SnoopResponse]) -> "ResponseAggregate":
        ch = di = sl = bs = False
        for response in responses:
            ch = ch or bool(response.ch)
            di = di or response.di
            sl = sl or response.sl
            bs = bs or response.bs
        return _AGGREGATES[(ch, di, sl, bs)]

    @property
    def aborted(self) -> bool:
        """BS observed: the transaction must abort and later retry."""
        return self.bs

    @property
    def intervened(self) -> bool:
        """DI observed: an owning cache preempts the memory response."""
        return self.di

    @property
    def shared(self) -> bool:
        """CH observed: some other cache retains a copy of the line."""
        return self.ch

    def notation(self) -> str:
        parts = []
        if self.ch:
            parts.append("CH")
        if self.di:
            parts.append("DI")
        if self.sl:
            parts.append("SL")
        if self.bs:
            parts.append("BS")
        return ",".join(parts)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.notation() or "(none)"


#: The wired-OR reduction has only 16 outcomes; :meth:`ResponseAggregate.of`
#: runs once per bus transaction, so it hands out interned instances
#: instead of constructing a frozen dataclass each time.
_AGGREGATES = {
    (ch, di, sl, bs): ResponseAggregate(ch=ch, di=di, sl=sl, bs=bs)
    for ch in (False, True)
    for di in (False, True)
    for sl in (False, True)
    for bs in (False, True)
}
