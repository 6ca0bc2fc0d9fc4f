"""The MOESI class of compatible protocols: Tables 1 and 2 as data.

This module is the heart of the reproduction.  The paper defines its class
of compatible protocols by two tables:

* **Table 1** ("MOESI Protocol: Result State and Bus Signals -- Local")
  gives, for each current state and each local event (read, write, pass,
  flush), the *set* of permitted actions.  Entries marked ``*`` are the
  write-through-cache members of the class, ``**`` the non-caching members.
* **Table 2** (same title, "Bus Event" side) gives the permitted responses
  of a snooping cache to each of the six bus-event columns.

Where a cell offers a choice, *the first entry is preferred* (paper
section 3.3); policies in :mod:`repro.core.policy` select among the rest.

Section 3.3 additionally licenses four relaxations (items 9-12) that close
the class under further substitutions:

9.  any ``CH:O/M`` may be replaced by O; M may change to O at any time;
10. any ``CH:S/E`` may be replaced by S; E may change to S at any time;
11. any transition to (or remaining in) E or S on a *bus* event may be
    changed to I (without asserting CH);
12. the state E may be replaced by M (at a loss of efficiency, since a
    write-back then becomes required).

:func:`local_choices` / :func:`snoop_choices` expose the literal table
cells; :class:`MoesiClassTable` additionally implements the relaxation
closure used by the class-membership validator
(:mod:`repro.core.validation`).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.actions import (
    CH_O_OR_M,
    CH_S_OR_E,
    BusOp,
    ConditionalState,
    LocalAction,
    MasterKind,
    NextState,
    SnoopAction,
)
from repro.core.events import (
    ALL_BUS_EVENTS,
    ALL_LOCAL_EVENTS,
    BusEvent,
    LocalEvent,
)
from repro.core.signals import MasterSignals, SnoopResponse
from repro.core.states import LineState

__all__ = [
    "LOCAL_TABLE",
    "SNOOP_TABLE",
    "local_choices",
    "snoop_choices",
    "MoesiClassTable",
    "N_STATES",
    "N_LOCAL_EVENTS",
    "N_BUS_EVENTS",
    "CompiledCells",
    "TableCompilationError",
    "compile_cells",
    "verify_compiled",
    "compile_deterministic",
    "shared_class_table",
    "compiled_class_cells",
    "fast_tables_enabled",
    "set_fast_tables",
    "tables_epoch",
    "BatchTables",
    "BATCH_LOCAL_WIDTH",
    "BATCH_SNOOP_WIDTH",
    "batchable",
    "lower_batch_tables",
    "verify_batch_tables",
    "bus_event_code_table",
]

#: Dimensions of the compiled flat tables.  Rows are indexed by
#: ``LineState.code`` (M,O,E,S,I -> 0..4), columns by ``LocalEvent.code``
#: (notes 1-4 -> 0..3) or ``BusEvent.code`` (notes 5-10 -> 0..5).
N_STATES = 5
N_LOCAL_EVENTS = 4
N_BUS_EVENTS = 6

M, O, E, S, I = (
    LineState.MODIFIED,
    LineState.OWNED,
    LineState.EXCLUSIVE,
    LineState.SHAREABLE,
    LineState.INVALID,
)

_CB = MasterKind.COPY_BACK
_WT = MasterKind.WRITE_THROUGH
_NC = MasterKind.NON_CACHING
_WT_NC = MasterKind.WRITE_THROUGH_OR_NON_CACHING


def _sig(ca: bool = False, im: bool = False, bc: bool = False) -> MasterSignals:
    return MasterSignals(ca=ca, im=im, bc=bc)


def _local(
    next_state: NextState,
    *,
    ca: bool = False,
    im: bool = False,
    bc: bool = False,
    op: BusOp = BusOp.NONE,
    bc_dont_care: bool = False,
    kind: MasterKind = _CB,
) -> LocalAction:
    return LocalAction(
        next_state=next_state,
        signals=_sig(ca, im, bc),
        bus_op=op,
        bc_dont_care=bc_dont_care,
        kind=kind,
    )


def _snoop(
    next_state: NextState,
    *,
    ch: Optional[bool] = False,
    di: bool = False,
    sl: bool = False,
) -> SnoopAction:
    return SnoopAction(next_state, SnoopResponse(ch=ch, di=di, sl=sl))


# ---------------------------------------------------------------------------
# Table 1: local events.  Cell values are tuples of permitted actions, the
# first entry being the preferred one.  An empty tuple renders as the
# paper's "--" (not a legal case / nothing to do).
# ---------------------------------------------------------------------------

#: Silent hit: remain in place, no bus activity.
def _stay(state: LineState) -> LocalAction:
    return _local(state)


LOCAL_TABLE: dict[tuple[LineState, LocalEvent], tuple[LocalAction, ...]] = {
    # ----- state M ------------------------------------------------------
    (M, LocalEvent.READ): (_stay(M),),
    (M, LocalEvent.WRITE): (_stay(M),),
    # Push the dirty line, keep the copy: "E,CA,BC?,W".
    (M, LocalEvent.PASS): (
        _local(E, ca=True, op=BusOp.WRITE, bc_dont_care=True),
    ),
    # Push the dirty line and discard: "I,BC?,W".
    (M, LocalEvent.FLUSH): (
        _local(I, op=BusOp.WRITE, bc_dont_care=True),
    ),
    # ----- state O ------------------------------------------------------
    (O, LocalEvent.READ): (_stay(O),),
    # "CH:O/M,CA,IM,BC,W  or  M,CA,IM": broadcast the modification and
    # remain owner, or send an address-only invalidate and take M.
    (O, LocalEvent.WRITE): (
        _local(CH_O_OR_M, ca=True, im=True, bc=True, op=BusOp.WRITE),
        _local(M, ca=True, im=True),
    ),
    # "CH:S/E,CA,BC?,W": push but keep the (now clean) copy.
    (O, LocalEvent.PASS): (
        _local(CH_S_OR_E, ca=True, op=BusOp.WRITE, bc_dont_care=True),
    ),
    (O, LocalEvent.FLUSH): (
        _local(I, op=BusOp.WRITE, bc_dont_care=True),
    ),
    # ----- state E ------------------------------------------------------
    (E, LocalEvent.READ): (_stay(E),),
    # Sole copy: modify silently.
    (E, LocalEvent.WRITE): (_stay(M),),
    (E, LocalEvent.PASS): (),
    # Clean: discard without a write-back.
    (E, LocalEvent.FLUSH): (_stay(I),),
    # ----- state S ------------------------------------------------------
    (S, LocalEvent.READ): (_stay(S),),
    # Copy-back choices as for O, plus the write-through members ("*"):
    # "S,IM,BC,W*" and "S,IM,W*" write past the cache without CA.
    (S, LocalEvent.WRITE): (
        _local(CH_O_OR_M, ca=True, im=True, bc=True, op=BusOp.WRITE),
        _local(M, ca=True, im=True),
        _local(S, im=True, bc=True, op=BusOp.WRITE, kind=_WT),
        _local(S, im=True, op=BusOp.WRITE, kind=_WT),
    ),
    (S, LocalEvent.PASS): (),
    (S, LocalEvent.FLUSH): (_stay(I),),
    # ----- state I ------------------------------------------------------
    # "CH:S/E,CA,R  or  S,CA,R*  or  I,R**".
    (I, LocalEvent.READ): (
        _local(CH_S_OR_E, ca=True, op=BusOp.READ),
        _local(S, ca=True, op=BusOp.READ, kind=_WT),
        _local(I, op=BusOp.READ, kind=_NC),
    ),
    # "M,CA,IM,R  or  Read>Write  or  I,IM,BC,W*,**  or  I,IM,W*,**
    #  or  Read>Write*".
    (I, LocalEvent.WRITE): (
        _local(M, ca=True, im=True, op=BusOp.READ),
        _local(CH_S_OR_E, ca=True, op=BusOp.READ_THEN_WRITE),
        _local(I, im=True, bc=True, op=BusOp.WRITE, kind=_WT_NC),
        _local(I, im=True, op=BusOp.WRITE, kind=_WT_NC),
        _local(S, ca=True, op=BusOp.READ_THEN_WRITE, kind=_WT),
    ),
    (I, LocalEvent.PASS): (),
    (I, LocalEvent.FLUSH): (),
}


# ---------------------------------------------------------------------------
# Table 2: bus events observed by a snooping cache.
# ---------------------------------------------------------------------------

_COL5 = BusEvent.CACHE_READ
_COL6 = BusEvent.CACHE_READ_FOR_MODIFY
_COL7 = BusEvent.UNCACHED_READ
_COL8 = BusEvent.CACHE_BROADCAST_WRITE
_COL9 = BusEvent.UNCACHED_WRITE
_COL10 = BusEvent.UNCACHED_BROADCAST_WRITE

SNOOP_TABLE: dict[tuple[LineState, BusEvent], tuple[SnoopAction, ...]] = {
    # ----- state M ------------------------------------------------------
    # A cache read: supply the data, downgrade to O (requester shares).
    (M, _COL5): (_snoop(O, ch=True, di=True),),
    # A write miss / invalidate: supply the data, then invalidate.
    (M, _COL6): (_snoop(I, di=True),),
    # Read by a non-caching processor: supply data, remain sole owner.
    (M, _COL7): (_snoop(M, ch=None, di=True),),
    # Broadcast write by a cache master cannot happen against M (the writer
    # would have to hold a copy, contradicting exclusivity).
    (M, _COL8): (),
    # Non-broadcast uncached write: capture the written data (the rest of
    # the line may be stale in memory, so the owner must not let memory
    # take the write alone).
    (M, _COL9): (_snoop(M, ch=None, di=True),),
    # Broadcast uncached write: connect and update; still owner, because a
    # word-write leaves the remainder of the line stale in memory.
    (M, _COL10): (_snoop(M, ch=None, sl=True),),
    # ----- state O ------------------------------------------------------
    (O, _COL5): (_snoop(O, ch=True, di=True),),
    (O, _COL6): (_snoop(I, di=True),),
    # Uncached read: supply data; listen (do not assert CH) to learn
    # whether any other cache retains a copy -- if none does, the owner
    # may promote itself to M.
    (O, _COL7): (_snoop(CH_O_OR_M, di=True),),
    # Broadcast write by another cache: relinquish ownership (the writer
    # becomes owner); update and share, or invalidate.
    (O, _COL8): (_snoop(S, ch=True, sl=True), _snoop(I)),
    (O, _COL9): (_snoop(O, ch=None, di=True),),
    # Must update (cannot invalidate): the write may be partial and memory
    # stale for the rest of the line; no cache master takes ownership.
    (O, _COL10): (_snoop(O, ch=True, sl=True),),
    # ----- state E ------------------------------------------------------
    (E, _COL5): (_snoop(S, ch=True),),
    (E, _COL6): (_snoop(I),),
    # Sole copy and unowned: nobody is listening for CH.
    (E, _COL7): (_snoop(E, ch=None),),
    (E, _COL8): (),
    (E, _COL9): (_snoop(I),),
    (E, _COL10): (_snoop(E, ch=None, sl=True), _snoop(I)),
    # ----- state S ------------------------------------------------------
    (S, _COL5): (_snoop(S, ch=True),),
    (S, _COL6): (_snoop(I),),
    # CH must be asserted even for a non-caching master: an O-state owner
    # may be listening to decide between O and M (see O, column 7).
    (S, _COL7): (_snoop(S, ch=True),),
    (S, _COL8): (_snoop(S, ch=True, sl=True), _snoop(I)),
    (S, _COL9): (_snoop(I),),
    (S, _COL10): (_snoop(S, ch=True, sl=True), _snoop(I)),
    # ----- state I ------------------------------------------------------
    (I, _COL5): (_snoop(I),),
    (I, _COL6): (_snoop(I),),
    (I, _COL7): (_snoop(I),),
    (I, _COL8): (_snoop(I),),
    (I, _COL9): (_snoop(I),),
    (I, _COL10): (_snoop(I),),
}


#: Kind-filtered Table-1 cells, memoized -- the tables are immutable and
#: there are only ``20 * len(MasterKind)`` distinct queries, but protocols
#: ask them on every local event.
_LOCAL_CHOICES_MEMO: dict[tuple, tuple[LocalAction, ...]] = {}


def local_choices(
    state: LineState,
    event: LocalEvent,
    kind: Optional[MasterKind] = None,
) -> tuple[LocalAction, ...]:
    """Permitted Table-1 actions for ``state`` on ``event``.

    With ``kind`` given, filters to the entries applicable to that kind of
    board (copy-back entries are those without a ``*``/``**`` annotation).
    """
    choices = LOCAL_TABLE[(state, event)]
    if kind is None:
        return choices
    key = (state, event, kind)
    cached = _LOCAL_CHOICES_MEMO.get(key)
    if cached is not None:
        return cached
    if kind is MasterKind.COPY_BACK:
        filtered = tuple(c for c in choices if c.kind is _CB)
    elif kind.includes_write_through and not kind.includes_non_caching:
        filtered = tuple(c for c in choices if c.kind.includes_write_through)
    elif kind.includes_non_caching and not kind.includes_write_through:
        filtered = tuple(c for c in choices if c.kind.includes_non_caching)
    else:
        filtered = tuple(
            c
            for c in choices
            if c.kind.includes_write_through or c.kind.includes_non_caching
        )
    _LOCAL_CHOICES_MEMO[key] = filtered
    return filtered


def snoop_choices(state: LineState, event: BusEvent) -> tuple[SnoopAction, ...]:
    """Permitted Table-2 responses for a snooper in ``state`` on ``event``."""
    return SNOOP_TABLE[(state, event)]


class MoesiClassTable:
    """The full protocol class: literal table entries plus the relaxation
    closure of section 3.3 items 9-12.

    Used both by :mod:`repro.core.validation` (membership checking) and by
    the exhaustive model checker (which explores *every* action in the
    closure to establish that any mix of choices preserves consistency).
    """

    def __init__(self, include_relaxations: bool = True) -> None:
        self.include_relaxations = include_relaxations
        # The tables are immutable, so each cell's closure is computed at
        # most once; both the membership validator and the model checker
        # query the same few cells millions of times.
        self._local_memo: dict[tuple, frozenset[LocalAction]] = {}
        self._snoop_memo: dict[tuple, frozenset[SnoopAction]] = {}
        # Membership verdicts are likewise immutable per (cell, action):
        # the differential oracle re-asks the same few questions for every
        # observed transition of a long fuzz campaign.
        self._permit_memo: dict[tuple, bool] = {}

    # -- closure computation ------------------------------------------------
    @staticmethod
    def _next_state_variants(
        base: NextState, on_bus_event: bool
    ) -> set[NextState]:
        """All next-states reachable from ``base`` under relaxations 9-12."""
        variants: set[NextState] = {base}
        if isinstance(base, ConditionalState):
            # 9/10: a conditional may collapse to its conservative branch.
            if base == CH_O_OR_M:
                variants.add(O)
            if base == CH_S_OR_E:
                variants.add(S)
                if not on_bus_event:
                    # 12: E may be replaced by M -- inside the conditional
                    # only (unconditional M would claim exclusivity while
                    # other copies may exist), i.e. CH:S/E -> CH:S/M.
                    variants.add(ConditionalState(S, M))
        else:
            # 9: M may become O at any time; 10: E may become S.
            if base is M:
                variants.add(O)
            if base is E:
                variants.add(S)
            # 12: E may be replaced by M (and transitively O, via 9).
            if base is E and not on_bus_event:
                variants.add(M)
        # 11: on bus events, landing in (or staying in) E or S may become I.
        if on_bus_event:
            for variant in list(variants):
                if isinstance(variant, ConditionalState):
                    continue
                if variant in (E, S):
                    variants.add(I)
        return variants

    def local_action_set(
        self,
        state: LineState,
        event: LocalEvent,
        kind: Optional[MasterKind] = None,
    ) -> frozenset[LocalAction]:
        """The closed set of permitted local actions."""
        key = (state, event, kind)
        cached = self._local_memo.get(key)
        if cached is not None:
            return cached
        actions: set[LocalAction] = set()
        for base in local_choices(state, event, kind):
            actions.add(base)
            if not self.include_relaxations:
                continue
            for variant in self._next_state_variants(
                base.next_state, on_bus_event=False
            ):
                actions.add(
                    LocalAction(
                        next_state=variant,
                        signals=base.signals,
                        bus_op=base.bus_op,
                        bc_dont_care=base.bc_dont_care,
                        kind=base.kind,
                    )
                )
        result = frozenset(actions)
        self._local_memo[key] = result
        return result

    def snoop_action_set(
        self, state: LineState, event: BusEvent
    ) -> frozenset[SnoopAction]:
        """The closed set of permitted snoop responses."""
        key = (state, event)
        cached = self._snoop_memo.get(key)
        if cached is not None:
            return cached
        actions: set[SnoopAction] = set()
        for base in snoop_choices(state, event):
            actions.add(base)
            if not self.include_relaxations:
                continue
            for variant in self._next_state_variants(
                base.next_state, on_bus_event=True
            ):
                if variant == base.next_state:
                    continue
                response = base.response
                if variant is I:
                    # Relaxation 11: an invalidating snooper does not
                    # retain the line, so it must not assert CH; an owner
                    # abandoning its line must still intervene/connect
                    # first, so DI/SL are preserved.
                    response = SnoopResponse(
                        ch=False,
                        di=response.di,
                        sl=response.sl,
                        bs=response.bs,
                    )
                actions.add(SnoopAction(variant, response))
        result = frozenset(actions)
        self._snoop_memo[key] = result
        return result

    # -- membership ---------------------------------------------------------
    def permits_local(
        self,
        state: LineState,
        event: LocalEvent,
        action: LocalAction,
        kind: Optional[MasterKind] = None,
    ) -> bool:
        """Whether ``action`` is within the class for (state, event).

        Kind annotations on the candidate action are ignored for matching:
        what matters is the observable behaviour (result state, signals,
        bus operation).
        """
        key = ("local", state, event, action, kind)
        cached = self._permit_memo.get(key)
        if cached is not None:
            return cached
        candidates = self.local_action_set(state, event, kind)
        verdict = any(_same_local_behaviour(action, c) for c in candidates)
        self._permit_memo[key] = verdict
        return verdict

    def permits_snoop(
        self, state: LineState, event: BusEvent, action: SnoopAction
    ) -> bool:
        key = ("snoop", state, event, action)
        cached = self._permit_memo.get(key)
        if cached is not None:
            return cached
        candidates = self.snoop_action_set(state, event)
        verdict = any(_same_snoop_behaviour(action, c) for c in candidates)
        self._permit_memo[key] = verdict
        return verdict

    def all_cells(self) -> Iterable[tuple]:
        """Iterate (side, state, event, permitted-tuple) over both tables."""
        for state in LineState:
            for event in ALL_LOCAL_EVENTS:
                yield ("local", state, event, LOCAL_TABLE[(state, event)])
        for state in LineState:
            for event in ALL_BUS_EVENTS:
                yield ("snoop", state, event, SNOOP_TABLE[(state, event)])


def _same_local_behaviour(a: LocalAction, b: LocalAction) -> bool:
    """Behavioural equality ignoring the kind annotation and BC don't-cares.

    ``BC?`` means the pusher may or may not broadcast, so a concrete action
    asserting BC on a push matches a ``BC?`` table entry.
    """
    if a.next_state != b.next_state or a.bus_op != b.bus_op:
        return False
    if (a.signals.ca, a.signals.im) != (b.signals.ca, b.signals.im):
        return False
    if a.signals.bc == b.signals.bc:
        return True
    return (b.bc_dont_care and not b.signals.bc) or (
        a.bc_dont_care and not a.signals.bc
    )


def _same_snoop_behaviour(a: SnoopAction, b: SnoopAction) -> bool:
    """Behavioural equality treating ``CH?`` don't-cares as wildcards."""
    if a.next_state != b.next_state:
        return False
    if a.abort_push != b.abort_push:
        return False
    ra, rb = a.response, b.response
    if (ra.di, ra.sl, ra.bs) != (rb.di, rb.sl, rb.bs):
        return False
    if ra.ch is None or rb.ch is None:
        return True
    return bool(ra.ch) == bool(rb.ch)


# ---------------------------------------------------------------------------
# The table compiler: dict-based cells lowered to integer-indexed flat
# tuples.
#
# Every table in the reproduction -- Table 1/2, the relaxation closure,
# and the per-protocol Tables 3-7 -- is a total function from a
# ``(state, event)`` pair to a small tuple of actions.  The dict form is
# the readable specification; the compiled form is one flat tuple of
# ``N_STATES * N_EVENTS`` cells indexed by ``state.code * N_EVENTS +
# event.code``, turning each hot-path lookup into integer arithmetic plus
# one sequence index (no tuple allocation, no enum hashing).  Because the
# compiled form is *derived*, every compilation ends with a cell-by-cell
# equivalence check against the dict-based source -- compile-then-verify.
# ---------------------------------------------------------------------------


class TableCompilationError(AssertionError):
    """A compiled table disagreed with its dict-based source cell."""


class CompiledCells:
    """Flat integer-indexed form of a protocol's (or the class closure's)
    transition cells.

    ``local`` has ``N_STATES * N_LOCAL_EVENTS`` entries, ``snoop``
    ``N_STATES * N_BUS_EVENTS``; each entry is the cell's action tuple
    (empty for the paper's "--" cells).
    """

    __slots__ = ("local", "snoop")

    def __init__(
        self,
        local: tuple[tuple[LocalAction, ...], ...],
        snoop: tuple[tuple[SnoopAction, ...], ...],
    ) -> None:
        if len(local) != N_STATES * N_LOCAL_EVENTS:
            raise ValueError(f"expected {N_STATES * N_LOCAL_EVENTS} local cells")
        if len(snoop) != N_STATES * N_BUS_EVENTS:
            raise ValueError(f"expected {N_STATES * N_BUS_EVENTS} snoop cells")
        self.local = local
        self.snoop = snoop

    def local_cell(
        self, state: LineState, event: LocalEvent
    ) -> tuple[LocalAction, ...]:
        return self.local[state.code * N_LOCAL_EVENTS + event.code]

    def snoop_cell(
        self, state: LineState, event: BusEvent
    ) -> tuple[SnoopAction, ...]:
        return self.snoop[state.code * N_BUS_EVENTS + event.code]


def compile_cells(local_fn, snoop_fn, verify: bool = True) -> CompiledCells:
    """Lower cell accessors ``local_fn(state, event)`` / ``snoop_fn(state,
    event)`` (each returning an action tuple) into a :class:`CompiledCells`.

    With ``verify`` (the default) the compiled form is immediately checked
    cell-by-cell against the source accessors through the *compiled* index
    arithmetic, so an interning or ordering bug cannot survive compilation.
    """
    local = tuple(
        tuple(local_fn(state, event))
        for state in LineState
        for event in ALL_LOCAL_EVENTS
    )
    snoop = tuple(
        tuple(snoop_fn(state, event))
        for state in LineState
        for event in ALL_BUS_EVENTS
    )
    cells = CompiledCells(local, snoop)
    if verify:
        verify_compiled(cells, local_fn, snoop_fn)
    return cells


def verify_compiled(cells: CompiledCells, local_fn, snoop_fn) -> None:
    """One-time equivalence check: every compiled cell, looked up through
    the integer index, must equal the dict-based source cell."""
    for state in LineState:
        for event in ALL_LOCAL_EVENTS:
            compiled = cells.local[state.code * N_LOCAL_EVENTS + event.code]
            if compiled != tuple(local_fn(state, event)):
                raise TableCompilationError(
                    f"compiled local cell ({state}, {event}) diverges "
                    "from its dict-based source"
                )
        for event in ALL_BUS_EVENTS:
            compiled = cells.snoop[state.code * N_BUS_EVENTS + event.code]
            if compiled != tuple(snoop_fn(state, event)):
                raise TableCompilationError(
                    f"compiled snoop cell ({state}, {event}) diverges "
                    "from its dict-based source"
                )


def compile_deterministic(
    local_transitions, snoop_transitions, snoop_fallback=None
):
    """Compile a deterministic protocol's transition mappings (the shape of
    :class:`repro.core.protocol.TableProtocol`, the paper's Tables 3-7)
    into two flat tuples of single actions (``None`` marks an illegal
    "--" cell).

    ``snoop_fallback(state, event)`` supplies the class-default response
    for snoop cells absent from the protocol's own table (mixed-system
    operation, paper section 4); the fallback is folded in at compile time
    so the hot path never takes a KeyError.  The compiled form is verified
    cell-by-cell against the mappings before being returned.
    """
    local = tuple(
        local_transitions.get((state, event))
        for state in LineState
        for event in ALL_LOCAL_EVENTS
    )
    snoop = []
    for state in LineState:
        for event in ALL_BUS_EVENTS:
            action = snoop_transitions.get((state, event))
            if action is None and snoop_fallback is not None:
                action = snoop_fallback(state, event)
            snoop.append(action)
    snoop = tuple(snoop)
    for state in LineState:
        for event in ALL_LOCAL_EVENTS:
            expected = local_transitions.get((state, event))
            if local[state.code * N_LOCAL_EVENTS + event.code] is not expected:
                raise TableCompilationError(
                    f"compiled local transition ({state}, {event}) diverges "
                    "from the protocol's mapping"
                )
        for event in ALL_BUS_EVENTS:
            expected = snoop_transitions.get((state, event))
            if expected is None and snoop_fallback is not None:
                expected = snoop_fallback(state, event)
            if snoop[state.code * N_BUS_EVENTS + event.code] is not expected:
                raise TableCompilationError(
                    f"compiled snoop transition ({state}, {event}) diverges "
                    "from the protocol's mapping"
                )
    return local, snoop


_FAST_TABLES_ENABLED = True
_TABLES_EPOCH = 0


def fast_tables_enabled() -> bool:
    """Whether protocols should serve the hot path from compiled tables."""
    return _FAST_TABLES_ENABLED


def tables_epoch() -> int:
    """Monotonic counter bumped whenever :func:`set_fast_tables` changes
    the setting.  Forked workers freeze the setting they inherited, so
    pool owners (:mod:`repro.perf.pool`) compare the epoch they started
    under against the current one and restart stale workers."""
    return _TABLES_EPOCH


def set_fast_tables(enabled: bool) -> bool:
    """Globally enable/disable the compiled-table fast path (tests compare
    the two paths byte-for-byte).  Returns the previous setting.

    Only affects protocols instantiated (or first exercised) afterwards:
    already-compiled instances keep their tables.  Each effective change
    bumps :func:`tables_epoch` so warm worker pools notice."""
    global _FAST_TABLES_ENABLED, _TABLES_EPOCH
    previous = _FAST_TABLES_ENABLED
    if bool(enabled) != previous:
        _TABLES_EPOCH += 1
    _FAST_TABLES_ENABLED = bool(enabled)
    return previous


_SHARED_CLASS_TABLE: Optional[MoesiClassTable] = None
_COMPILED_CLASS_CELLS: Optional[CompiledCells] = None


def shared_class_table() -> MoesiClassTable:
    """The process-wide relaxation-closure table (memoized cells and
    membership verdicts shared by every explorer and oracle)."""
    global _SHARED_CLASS_TABLE
    if _SHARED_CLASS_TABLE is None:
        _SHARED_CLASS_TABLE = MoesiClassTable()
    return _SHARED_CLASS_TABLE


def _choice_order(action) -> tuple[str, str]:
    """Sort key of a closure cell: the notation, then the next state.

    Every Read>Write action renders as plain ``Read>Write`` whatever its
    landing state, so the notation alone leaves ties, and the closure is
    a frozenset: without the second key their order would follow set
    iteration order, which varies with the hash seed."""
    state = action.next_state
    return action.notation(), (
        state.letter if isinstance(state, LineState) else state.notation()
    )


def compiled_class_cells() -> CompiledCells:
    """The full relaxation closure, compiled: every cell is its closed
    action set sorted by :func:`_choice_order` (the deterministic order
    the full-class explorer enumerates choices in)."""
    global _COMPILED_CLASS_CELLS
    if _COMPILED_CLASS_CELLS is None:
        table = shared_class_table()

        def local_fn(state, event):
            return tuple(
                sorted(table.local_action_set(state, event), key=_choice_order)
            )

        def snoop_fn(state, event):
            return tuple(
                sorted(table.snoop_action_set(state, event), key=_choice_order)
            )

        _COMPILED_CLASS_CELLS = compile_cells(local_fn, snoop_fn)
    return _COMPILED_CLASS_CELLS


# ---------------------------------------------------------------------------
# Batch lowering: protocol tables as pure-integer records.
#
# The struct-of-arrays kernel (:mod:`repro.perf.batch`) steps thousands of
# independent systems as parallel integer arrays, so it cannot afford enum
# objects, dataclasses, or policy dispatch on its inner loop.  This section
# lowers a *deterministic* protocol instance to two flat tuples of small
# integer records -- one consult becomes one tuple index.  Protocols whose
# choices depend on hidden state (seeded RNGs, round-robin counters) are
# not lowerable; :func:`lower_batch_tables` returns ``None`` for them and
# callers fall back to the object engine.
#
# Record formats (``None`` marks an illegal "--" cell):
#
# * local cell  -> ``(ns_ch, ns_nch, ca, im, bc, op)`` where ``ns_ch`` /
#   ``ns_nch`` are the ``LineState.code`` values the conditional next
#   state resolves to under CH asserted / not asserted, ``ca``/``im``/
#   ``bc`` are the raw master signal bits, and ``op`` encodes the BusOp
#   (0 NONE, 1 READ, 2 WRITE, 3 READ_THEN_WRITE).  A cell is silent
#   exactly when ``op == 0 and ca == 0 and im == 0``.
# * snoop cell  -> ``(ns_ch, ns_nch, ch, di, sl, bs, abort_push,
#   push_ca, push_im, push_bc)``: the response bits (CH? don't-care
#   lowered to 0, matching ``ResponseAggregate.of``), whether the cell
#   abort-pushes, and the push transaction's master signals (the
#   controller's ``ca=1`` default baked in when the action carries none).
#
# Compile-then-verify discipline: after probing, every record is checked
# against a *fresh* probe of the protocol, so a non-deterministic protocol
# that slipped past the probe consistency check still cannot produce a
# silently wrong table.
# ---------------------------------------------------------------------------

_BUS_OP_CODES = {
    BusOp.NONE: 0,
    BusOp.READ: 1,
    BusOp.WRITE: 2,
    BusOp.READ_THEN_WRITE: 3,
}

#: Number of integers in one lowered local / snoop record.
BATCH_LOCAL_WIDTH = 6
BATCH_SNOOP_WIDTH = 10


class BatchTables:
    """A deterministic protocol lowered to flat integer records.

    ``local`` has ``N_STATES * N_LOCAL_EVENTS`` entries, ``snoop``
    ``N_STATES * N_BUS_EVENTS``, indexed exactly like
    :class:`CompiledCells` (``state.code * N_EVENTS + event.code``).
    """

    __slots__ = ("name", "non_caching", "local", "snoop")

    def __init__(self, name, non_caching, local, snoop):
        if len(local) != N_STATES * N_LOCAL_EVENTS:
            raise ValueError(f"expected {N_STATES * N_LOCAL_EVENTS} local cells")
        if len(snoop) != N_STATES * N_BUS_EVENTS:
            raise ValueError(f"expected {N_STATES * N_BUS_EVENTS} snoop cells")
        self.name = name
        self.non_caching = bool(non_caching)
        self.local = local
        self.snoop = snoop

    def __eq__(self, other):
        return (
            isinstance(other, BatchTables)
            and self.name == other.name
            and self.non_caching == other.non_caching
            and self.local == other.local
            and self.snoop == other.snoop
        )

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<BatchTables {self.name!r} non_caching={self.non_caching}>"


def _lower_local_action(action: LocalAction):
    from repro.core.actions import resolve_next_state

    return (
        resolve_next_state(action.next_state, True).code,
        resolve_next_state(action.next_state, False).code,
        int(action.signals.ca),
        int(action.signals.im),
        int(action.signals.bc),
        _BUS_OP_CODES[action.bus_op],
    )


def _lower_snoop_action(action: SnoopAction):
    from repro.core.actions import resolve_next_state

    response = action.response
    push = action.push_signals or MasterSignals(ca=True)
    return (
        resolve_next_state(action.next_state, True).code,
        resolve_next_state(action.next_state, False).code,
        int(bool(response.ch)),
        int(response.di),
        int(response.sl),
        int(response.bs),
        int(action.abort_push),
        int(push.ca) if action.abort_push else 0,
        int(push.im) if action.abort_push else 0,
        int(push.bc) if action.abort_push else 0,
    )


#: Probe contexts: a lowerable protocol must pick the same action whatever
#: the address, sequence number, or replacement recency says.
_PROBE_LOCAL_CTXS = None
_PROBE_SNOOP_CTXS = None


def _probe_contexts():
    global _PROBE_LOCAL_CTXS, _PROBE_SNOOP_CTXS
    if _PROBE_LOCAL_CTXS is None:
        from repro.core.protocol import LocalContext, SnoopContext

        _PROBE_LOCAL_CTXS = (
            LocalContext(address=0, sequence=0),
            LocalContext(address=3, sequence=1),
            LocalContext(address=7, sequence=17),
        )
        _PROBE_SNOOP_CTXS = (
            SnoopContext(address=0, sequence=0, recency=0.0),
            SnoopContext(address=5, sequence=9, recency=1.0),
            SnoopContext(address=2, sequence=3),
        )
    return _PROBE_LOCAL_CTXS, _PROBE_SNOOP_CTXS


def _probe_cell(consult, state, event, ctxs):
    """Consult a protocol method under every probe context; the action
    (or the ``None`` illegal marker) must be identical across contexts,
    else the protocol is context-sensitive and cannot be lowered."""
    from repro.core.protocol import IllegalTransitionError

    first = _MISSING = object()
    for ctx in ctxs:
        try:
            action = consult(state, event, ctx)
        except IllegalTransitionError:
            action = None
        if first is _MISSING:
            first = action
        elif action != first:
            return False, None
    return True, first


def batchable(protocol) -> bool:
    """Whether :func:`lower_batch_tables` can lower this instance."""
    return lower_batch_tables(protocol) is not None


def lower_batch_tables(protocol):
    """Lower a protocol instance to :class:`BatchTables`, or ``None``.

    Stateful selection (a seeded :class:`~repro.core.policy.RandomPolicy`,
    a :class:`~repro.core.policy.RoundRobinPolicy`, or any protocol
    carrying its own RNG) is rejected *before* any probing so the
    rejection itself cannot advance the instance's hidden state -- the
    caller's object-engine fallback then replays it bit-exact.
    """
    from repro.core.policy import (
        InvalidatePolicy,
        PreferredPolicy,
        UpdatePolicy,
    )

    # A wrapper (a ProtocolMutant) consults its ``base`` for every cell it
    # does not override, so the base's selector counts as its own.
    layer = protocol
    while layer is not None:
        policy = getattr(layer, "policy", None)
        if policy is not None and not isinstance(
            policy, (PreferredPolicy, InvalidatePolicy, UpdatePolicy)
        ):
            return None
        if getattr(layer, "_rng", None) is not None:
            return None
        if getattr(layer, "rng", None) is not None:
            return None
        layer = getattr(layer, "base", None)

    local_ctxs, snoop_ctxs = _probe_contexts()
    local = []
    for state in LineState:
        for event in ALL_LOCAL_EVENTS:
            ok, action = _probe_cell(
                protocol.local_action, state, event, local_ctxs
            )
            if not ok:
                return None
            local.append(None if action is None else _lower_local_action(action))
    snoop = []
    for state in LineState:
        for event in ALL_BUS_EVENTS:
            ok, action = _probe_cell(
                protocol.snoop_action, state, event, snoop_ctxs
            )
            if not ok:
                return None
            snoop.append(None if action is None else _lower_snoop_action(action))
    tables = BatchTables(
        name=protocol.name,
        non_caching=protocol.kind is MasterKind.NON_CACHING,
        local=tuple(local),
        snoop=tuple(snoop),
    )
    verify_batch_tables(tables, protocol)
    return tables


def verify_batch_tables(tables: BatchTables, protocol) -> None:
    """Fresh-probe equivalence check of lowered records against the live
    protocol, through the same integer index arithmetic the kernel uses."""
    local_ctxs, snoop_ctxs = _probe_contexts()
    for state in LineState:
        for event in ALL_LOCAL_EVENTS:
            ok, action = _probe_cell(
                protocol.local_action, state, event, local_ctxs
            )
            record = tables.local[state.code * N_LOCAL_EVENTS + event.code]
            expected = None if action is None else _lower_local_action(action)
            if not ok or record != expected:
                raise TableCompilationError(
                    f"{tables.name}: lowered local cell ({state}, {event}) "
                    "diverges from the live protocol"
                )
        for event in ALL_BUS_EVENTS:
            ok, action = _probe_cell(
                protocol.snoop_action, state, event, snoop_ctxs
            )
            record = tables.snoop[state.code * N_BUS_EVENTS + event.code]
            expected = None if action is None else _lower_snoop_action(action)
            if not ok or record != expected:
                raise TableCompilationError(
                    f"{tables.name}: lowered snoop cell ({state}, {event}) "
                    "diverges from the live protocol"
                )


_BUS_EVENT_CODE_TABLE = None


def bus_event_code_table():
    """Bus-event codes indexed by master signals: an 8-entry tuple indexed
    ``ca*4 + im*2 + (bc and im)`` (the BC-without-IM normalization of
    :meth:`BusEvent.from_signals` folded in; unreachable patterns are -1).
    """
    global _BUS_EVENT_CODE_TABLE
    if _BUS_EVENT_CODE_TABLE is None:
        table = [-1] * 8
        for event in ALL_BUS_EVENTS:
            signals = event.master_signals
            bc = signals.bc and signals.im
            table[int(signals.ca) * 4 + int(signals.im) * 2 + int(bc)] = (
                event.code
            )
        _BUS_EVENT_CODE_TABLE = tuple(table)
    return _BUS_EVENT_CODE_TABLE
