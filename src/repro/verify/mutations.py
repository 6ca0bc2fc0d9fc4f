"""Out-of-class protocol mutants: negative controls for the model checker.

The compatibility theorem is only convincing if the checker would notice a
broken protocol.  Each mutant here takes a correct protocol and changes
exactly one cell to something *outside* the MOESI class; the explorer must
find a violation for every one of them (and the membership validator must
reject them statically).

Mutants:

* :class:`SilentSharedWriteMutant` -- writes to S silently take M without
  any bus transaction (other copies are never told);
* :class:`NoInvalidateOnReadForModifyMutant` -- keeps its S copy (and
  claims CH) when another cache reads-for-modify (column 6);
* :class:`DropOwnershipMutant` -- an M-state owner silently discards its
  line on eviction instead of writing it back;
* :class:`NoInterventionMutant` -- an M-state owner refuses to intervene
  on a bus read, letting memory supply stale data;
* :class:`DoubleOwnerMutant` -- lands in O (instead of S) when snooping
  another owner's broadcast write, manufacturing two owners;
* :class:`AdaptiveRetainWithoutConnectMutant` -- a threshold-adaptive
  hybrid that claims retention (CH) on a snooped broadcast write but
  never connects (no SL), so its retained copy goes stale;
* :class:`MesifStaleForwardMutant` -- MESIF whose M state forwards dirty
  data cache-to-cache without the memory push, leaving memory stale with
  no owner once the forwarder drops out.

Each mutant names the correct partner to pair it with during
exploration via ``partner_spec`` (the BS-adapted MESIF mutant must stay
homogeneous, like its base).
"""

from __future__ import annotations

from typing import Optional

from repro.core.actions import BusOp, LocalAction, SnoopAction
from repro.core.events import BusEvent, LocalEvent
from repro.core.protocol import LocalContext, Protocol, SnoopContext
from repro.core.signals import MasterSignals, SnoopResponse
from repro.core.states import LineState
from repro.protocols.moesi import MoesiProtocol

__all__ = [
    "ProtocolMutant",
    "SilentSharedWriteMutant",
    "NoInvalidateOnReadForModifyMutant",
    "DropOwnershipMutant",
    "NoInterventionMutant",
    "DoubleOwnerMutant",
    "AdaptiveRetainWithoutConnectMutant",
    "MesifStaleForwardMutant",
    "ALL_MUTANTS",
]

M, O, E, S, I = (
    LineState.MODIFIED,
    LineState.OWNED,
    LineState.EXCLUSIVE,
    LineState.SHAREABLE,
    LineState.INVALID,
)


class ProtocolMutant(Protocol):
    """Wrap a base protocol, overriding single cells.

    Subclasses fill ``local_overrides`` / ``snoop_overrides``.
    """

    local_overrides: dict[tuple[LineState, LocalEvent], LocalAction] = {}
    snoop_overrides: dict[tuple[LineState, BusEvent], SnoopAction] = {}
    #: Registry spec of the correct partner the explorer pairs the mutant
    #: with (BS-adapted bases need a homogeneous partner).
    partner_spec: str = "moesi"

    def __init__(self, base: Optional[Protocol] = None) -> None:
        #: Built on the class's own default base: the mutant's cells are
        #: then a function of its class alone.
        self.stock = base is None
        self.base = base or self.default_base()
        self.name = f"{type(self).__name__}({self.base.name})"
        self.kind = self.base.kind
        self.states = self.base.states
        self.requires_busy = self.base.requires_busy

    @staticmethod
    def default_base() -> Protocol:
        return MoesiProtocol()

    def local_action(self, state, event, ctx: Optional[LocalContext] = None):
        override = self.local_overrides.get((state, event))
        if override is not None:
            return override
        return self.base.local_action(state, event, ctx)

    def snoop_action(self, state, event, ctx: Optional[SnoopContext] = None):
        override = self.snoop_overrides.get((state, event))
        if override is not None:
            return override
        return self.base.snoop_action(state, event, ctx)

    def local_cell(self, state, event):
        override = self.local_overrides.get((state, event))
        if override is not None:
            return (override,)
        return self.base.local_cell(state, event)

    def snoop_cell(self, state, event):
        override = self.snoop_overrides.get((state, event))
        if override is not None:
            return (override,)
        return self.base.snoop_cell(state, event)


class SilentSharedWriteMutant(ProtocolMutant):
    """Write hits in S take M without telling anyone -- the textbook
    coherence bug (other S copies go stale)."""

    local_overrides = {
        (S, LocalEvent.WRITE): LocalAction(M, MasterSignals(), BusOp.NONE),
    }


class NoInvalidateOnReadForModifyMutant(ProtocolMutant):
    """Keeps its S copy when another cache performs a read-for-modify;
    the writer then modifies while this stale copy survives."""

    snoop_overrides = {
        (S, BusEvent.CACHE_READ_FOR_MODIFY): SnoopAction(
            S, SnoopResponse(ch=True)
        ),
    }


class DropOwnershipMutant(ProtocolMutant):
    """Evicts M lines silently -- the only current copy evaporates and
    memory is left stale with no owner."""

    local_overrides = {
        (M, LocalEvent.FLUSH): LocalAction(I, MasterSignals(), BusOp.NONE),
    }


class NoInterventionMutant(ProtocolMutant):
    """An M owner that refuses to intervene on a cache read: the requester
    is served stale data by memory."""

    snoop_overrides = {
        (M, BusEvent.CACHE_READ): SnoopAction(O, SnoopResponse(ch=True)),
    }


class DoubleOwnerMutant(ProtocolMutant):
    """Snooping a broadcast write from O, stays *O* (instead of handing
    ownership to the writer) -- two owners result."""

    snoop_overrides = {
        (O, BusEvent.CACHE_BROADCAST_WRITE): SnoopAction(
            O, SnoopResponse(ch=True, sl=True)
        ),
    }


class AdaptiveRetainWithoutConnectMutant(ProtocolMutant):
    """A threshold-adaptive hybrid that answers a snooped broadcast write
    with CH (it keeps the copy) but no SL (it never connects to the
    transfer): the retained copy silently misses the update."""

    snoop_overrides = {
        (S, BusEvent.CACHE_BROADCAST_WRITE): SnoopAction(
            S, SnoopResponse(ch=True)
        ),
    }

    @staticmethod
    def default_base() -> Protocol:
        from repro.core.policy import ThresholdAdaptivePolicy

        return MoesiProtocol(
            ThresholdAdaptivePolicy(), name="MOESI(adaptive-threshold)"
        )


class MesifStaleForwardMutant(ProtocolMutant):
    """MESIF whose M state forwards its dirty line cache-to-cache (no BS
    abort-push): memory is never updated, and once the new forwarder
    drops its clean-believed copy no owner remains to supply the current
    data."""

    partner_spec = "mesif"
    snoop_overrides = {
        (M, BusEvent.CACHE_READ): SnoopAction(
            S, SnoopResponse(ch=True, di=True)
        ),
    }

    @staticmethod
    def default_base() -> Protocol:
        from repro.protocols.mesif import MesifProtocol

        return MesifProtocol()


ALL_MUTANTS = (
    SilentSharedWriteMutant,
    NoInvalidateOnReadForModifyMutant,
    DropOwnershipMutant,
    NoInterventionMutant,
    DoubleOwnerMutant,
    AdaptiveRetainWithoutConnectMutant,
    MesifStaleForwardMutant,
)
