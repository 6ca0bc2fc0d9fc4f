"""The snooping cache controller: where protocol, cache and bus meet.

A controller serves its processor's reads and writes against its local
:class:`~repro.cache.cache.SetAssociativeCache`, consults its
:class:`~repro.core.protocol.Protocol` for every local event and every
snooped bus event, and issues/answers Futurebus transactions accordingly.

The paper's central requirement (section 2.1) is honored structurally:
every controller participates in every broadcast address cycle.  A
controller holding a valid copy is snooped -- :meth:`CacheController.snoop`
contributes its CH/DI/SL/BS response before the address cycle may
complete; one without a copy is in state I, whose Table 2 row answers
nothing and changes nothing, so the bus reads that off the controller's
resident map (:attr:`CacheController.resident`) instead of calling it.

Execution of one local event covers all the shapes Table 1 can produce:

* silent hits (no bus activity);
* a single read or write transaction, with the master's conditional result
  state (``CH:S/E``, ``CH:O/M``) resolved from the observed CH line;
* address-only invalidates (IM without a data phase);
* ``Read>Write`` -- two chained transactions, the write chosen by the
  protocol *from the state the read landed in*;
* allocation with eviction, where the victim line is flushed through the
  protocol's own FLUSH action (write-back if owned, silent drop if not).
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Optional

from repro.bus.futurebus import BusAgent, Futurebus
from repro.bus.transaction import Transaction
from repro.cache.cache import SetAssociativeCache
from repro.cache.line import CacheLine
from repro.cache.replacement import LruPolicy
from repro.core.actions import BusOp, LocalAction, SnoopAction
from repro.core.events import LocalEvent
from repro.core.protocol import (
    IllegalTransitionError,
    LocalContext,
    Protocol,
    ProtocolGapError,
    SnoopContext,
)
from repro.core.signals import MasterSignals, ResponseAggregate, SnoopResponse
from repro.core.states import LineState

_INVALID = LineState.INVALID

__all__ = ["ControllerStats", "CacheController", "NonCachingMaster"]


@dataclasses.dataclass
class ControllerStats:
    """Per-controller event counters."""

    reads: int = 0
    writes: int = 0
    read_hits: int = 0
    write_hits: int = 0
    read_misses: int = 0
    write_misses: int = 0
    write_backs: int = 0
    evictions: int = 0
    invalidations_received: int = 0
    updates_received: int = 0
    interventions_supplied: int = 0
    writes_captured: int = 0
    abort_pushes: int = 0
    bus_transactions: int = 0
    #: Hits keyed by the MOESI state letter the line was found in -- the
    #: per-state breakdown section 5.2's analysis needs.
    hits_by_state: Counter = dataclasses.field(default_factory=Counter)

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def hits(self) -> int:
        return self.read_hits + self.write_hits

    @property
    def miss_ratio(self) -> float:
        return 0.0 if not self.accesses else 1 - self.hits / self.accesses

    def reset(self) -> None:
        for field in dataclasses.fields(self):
            if field.name == "hits_by_state":
                self.hits_by_state.clear()
            else:
                setattr(self, field.name, 0)


_READ = LocalEvent.READ
_WRITE = LocalEvent.WRITE
_READ_CELL = _READ.code
_WRITE_CELL = _WRITE.code
_NO_RESPONSE = SnoopResponse.NONE
#: A BS push's master signals when the action names none.
_PUSH_SIGNALS = MasterSignals(ca=True)


class CacheController(BusAgent):
    """A caching board: processor port on one side, Futurebus on the other."""

    def __init__(
        self,
        unit_id: str,
        protocol: Protocol,
        cache: Optional[SetAssociativeCache] = None,
        bus: Optional[Futurebus] = None,
    ) -> None:
        self.unit_id = unit_id
        self.protocol = protocol
        self.cache = cache or SetAssociativeCache()
        #: The cache's resident map (see :class:`SetAssociativeCache`):
        #: the processor port and the snooper probe it directly, and the
        #: bus reads it to snoop only boards that hold the line.
        self.resident = self.cache.resident
        self._line_size = self.cache.line_size
        replacement = self.cache.replacement
        #: The per-set use order when the policy is plain LRU, which a
        #: hit updates in place; any other policy is called.
        self._lru = replacement._order if type(replacement) is LruPolicy else None
        #: ``(local, snoop)`` flat action tables when the protocol's
        #: choice is context-free (:meth:`Protocol.static_tables`).
        self._tables = protocol.static_tables()
        self.stats = ControllerStats()
        self._seq = 0
        #: The snoop decision stashed between address cycle and finalize:
        #: ``(txn serial, line, action)``.
        self._pending: Optional[tuple[int, CacheLine, SnoopAction]] = None
        self.bus: Optional[Futurebus] = None
        #: Optional hook called as ``observer(unit_id, side, state, event,
        #: action)`` for every protocol decision this board takes --
        #: ``side`` is ``"local"`` or ``"snoop"``.  The fuzzer's
        #: differential oracle subscribes here to cross-check each observed
        #: transition against the canonical tables.
        self.transition_observer = None
        #: The structured trace, set by :meth:`attach_trace`: the
        #: tracer's cell-code sink, its interning method and this board's
        #: table bases.  Kept apart from :attr:`transition_observer`, so
        #: tracing a fuzzed run never displaces the oracle.
        self._trace_sink = None
        self._trace_code = None
        self._trace_local = self._trace_snoop = 0
        if bus is not None:
            self.attach_to(bus)

    def attach_trace(self, tracer) -> None:
        """Record this board's protocol decisions in a
        :class:`repro.obs.trace.Tracer` (``None`` detaches).  A board
        served from flat tables registers them, and each decision is
        then recorded as ``base + cell index``."""
        if tracer is None:
            self._trace_sink = self._trace_code = None
            return
        self._trace_sink = tracer.transition_sink
        self._trace_code = tracer.cell_code
        if self._tables is not None:
            self._trace_local, self._trace_snoop = tracer.register_tables(
                self.unit_id, self._tables
            )

    def attach_to(self, bus: Futurebus) -> None:
        self.bus = bus
        bus.attach(self)

    def _require_bus(self) -> Futurebus:
        if self.bus is None:
            raise RuntimeError(f"{self.unit_id} is not attached to a bus")
        return self.bus

    def _valid_line(self, line_address: int) -> Optional[CacheLine]:
        found = self.resident.get(line_address)
        if found is not None and found[2].state.valid:
            return found[2]
        return None

    def _choose_local(
        self, state: LineState, event: LocalEvent, line_address: int
    ) -> LocalAction:
        """Consult the protocol for a local event, notifying the observers.

        Every local decision advances the board's sequence number (the
        ``sequence`` of the contexts policies see), table-served or not."""
        self._seq += 1
        tables = self._tables
        if tables is None:
            action = self.protocol.local_action(
                state, event, LocalContext(line_address, self._seq)
            )
        else:
            cell = state.code * 4 + event.code
            action = tables[0][cell]
            if action is None:
                raise IllegalTransitionError(self.protocol.name, state, event)
        if self.transition_observer is not None:
            self.transition_observer(self.unit_id, "local", state, event, action)
        if self._trace_sink is not None:
            self._trace_sink(
                self._trace_code("local", self.unit_id, state, event, action)
                if tables is None
                else self._trace_local + cell
            )
        return action

    # ------------------------------------------------------------------
    # Processor port.
    # ------------------------------------------------------------------
    # A hit is the common case, so read and write inline what
    # _choose_local does and the LRU touch: one resident-map probe, one
    # table cell, the silent next state and the use order.
    def read(self, byte_address: int) -> int:
        """Processor load; returns the line's data token."""
        line_address = byte_address // self._line_size
        stats = self.stats
        stats.reads += 1
        found = self.resident.get(line_address)
        if found is None or not found[2].state.valid:
            stats.read_misses += 1
            action = self._choose_local(_INVALID, _READ, line_address)
            return self._run_local_action(line_address, _READ, action, None)
        set_index, way, line = found
        state = line.state
        stats.read_hits += 1
        stats.hits_by_state[state.letter] += 1
        self._seq += 1
        tables = self._tables
        if tables is None:
            action = self.protocol.local_action(
                state, _READ, LocalContext(line_address, self._seq)
            )
        else:
            cell = state.code * 4 + _READ_CELL
            action = tables[0][cell]
            if action is None:
                raise IllegalTransitionError(self.protocol.name, state, _READ)
        if self.transition_observer is not None:
            self.transition_observer(self.unit_id, "local", state, _READ, action)
        if self._trace_sink is not None:
            self._trace_sink(
                self._trace_code("local", self.unit_id, state, _READ, action)
                if tables is None
                else self._trace_local + cell
            )
        if not action.is_silent:
            raise AssertionError(
                f"{self.unit_id}: hit action expected silent, got {action}"
            )
        line.state = action.next_if_not_ch
        lru = self._lru
        if lru is None:
            self.cache.touch(set_index, way)
        else:
            order = lru[set_index]
            if order[0] != way:
                order.remove(way)
                order.insert(0, way)
        return line.value

    def write(self, byte_address: int, value: int) -> None:
        """Processor store of data token ``value``."""
        line_address = byte_address // self._line_size
        stats = self.stats
        stats.writes += 1
        found = self.resident.get(line_address)
        if found is None or not found[2].state.valid:
            stats.write_misses += 1
            action = self._choose_local(_INVALID, _WRITE, line_address)
            self._run_local_action(line_address, _WRITE, action, value)
            return
        set_index, way, line = found
        state = line.state
        stats.write_hits += 1
        stats.hits_by_state[state.letter] += 1
        self._seq += 1
        tables = self._tables
        if tables is None:
            action = self.protocol.local_action(
                state, _WRITE, LocalContext(line_address, self._seq)
            )
        else:
            cell = state.code * 4 + _WRITE_CELL
            action = tables[0][cell]
            if action is None:
                raise IllegalTransitionError(self.protocol.name, state, _WRITE)
        if self.transition_observer is not None:
            self.transition_observer(self.unit_id, "local", state, _WRITE, action)
        if self._trace_sink is not None:
            self._trace_sink(
                self._trace_code("local", self.unit_id, state, _WRITE, action)
                if tables is None
                else self._trace_local + cell
            )
        next_state = action.next_if_not_ch
        if action.is_silent and next_state.valid:
            line.state = next_state
            line.value = value
        else:
            self._run_local_action(line_address, _WRITE, action, value)
        lru = self._lru
        if lru is None:
            self.cache.touch(set_index, way)
        else:
            order = lru[set_index]
            if order[0] != way:
                order.remove(way)
                order.insert(0, way)

    def flush_line(self, line_address: int) -> None:
        """Evict a specific line (push it first if owned)."""
        line = self._valid_line(line_address)
        if line is not None:
            self._evict(line, line_address)

    def clean_line(self, line_address: int) -> None:
        """Proactively push a dirty line but keep the copy (PASS)."""
        line = self._valid_line(line_address)
        if line is None:
            return
        try:
            action = self._choose_local(
                line.state, LocalEvent.PASS, line_address
            )
        except IllegalTransitionError:
            return  # nothing to push (clean states have no PASS entry)
        self._run_local_action(line_address, LocalEvent.PASS, action, None)

    # ------------------------------------------------------------------
    # Local-action execution.
    # ------------------------------------------------------------------
    def _run_local_action(
        self,
        line_address: int,
        event: LocalEvent,
        action: LocalAction,
        new_value: Optional[int],
    ) -> int:
        """Execute one Table-1 action to completion; returns the data token
        the processor observes."""
        line = self._valid_line(line_address)

        if action.bus_op is BusOp.READ_THEN_WRITE:
            return self._read_then_write(line_address, action, new_value)

        if action.is_silent:
            # Silent transitions require the line to be present unless the
            # result is invalid (e.g. a clean drop).
            next_state = action.next_if_not_ch
            if line is None:
                if next_state.valid:
                    raise AssertionError(
                        f"{self.unit_id}: silent transition to {next_state} "
                        "without a cached line"
                    )
                return new_value if new_value is not None else 0
            if next_state.valid:
                line.state = next_state
                if event is _WRITE:
                    assert new_value is not None
                    line.value = new_value
            else:
                line.invalidate()
            return line.value

        # A bus transaction is required.
        bus = self.bus
        if bus is None:
            bus = self._require_bus()
        op = action.bus_op
        wire_value: Optional[int] = None
        if op is BusOp.WRITE:
            if event is _WRITE:
                assert new_value is not None
                wire_value = new_value
            else:
                # PASS/FLUSH push the line's current contents.
                assert line is not None
                wire_value = line.value
        result = bus.execute(
            self.unit_id, line_address, action.signals, op, wire_value
        )
        self.stats.bus_transactions += 1
        resolved = (
            action.next_if_ch if result.aggregate.ch else action.next_if_not_ch
        )

        # Determine the data token the processor/line ends up with: a local
        # write always ends with the newly written value (even when the bus
        # part was an address-only invalidate or a read-for-ownership whose
        # fetched data is immediately overwritten); a read ends with the
        # supplied data; pushes keep the line's own contents.
        if event is _WRITE:
            token = new_value
        elif op is BusOp.READ:
            assert result.value is not None
            token = result.value
        else:
            token = line.value if line is not None else 0

        if resolved.valid:
            if line is None:
                line = self._install(line_address, resolved, token)
            else:
                line.state = resolved
                line.value = token  # type: ignore[assignment]
        elif line is not None:
            line.invalidate()
        if event is LocalEvent.PASS or event is LocalEvent.FLUSH:
            self.stats.write_backs += 1
        assert token is not None
        return token

    def _read_then_write(
        self,
        line_address: int,
        action: LocalAction,
        new_value: Optional[int],
    ) -> int:
        """Two transactions: a read (landing per the action's conditional
        state), then the protocol's write action from that state."""
        assert new_value is not None, "Read>Write only arises from writes"
        bus = self._require_bus()
        result = bus.execute(
            self.unit_id, line_address, action.signals, BusOp.READ, None
        )
        self.stats.bus_transactions += 1
        landed = (
            action.next_if_ch if result.aggregate.ch else action.next_if_not_ch
        )
        assert result.value is not None
        if landed.valid:
            self._install(line_address, landed, result.value)
        write_action = self._choose_local(landed, _WRITE, line_address)
        if write_action.bus_op is BusOp.READ_THEN_WRITE:
            raise AssertionError(
                f"{self.protocol.name}: Read>Write may not chain into "
                "another Read>Write"
            )
        return self._run_local_action(
            line_address, _WRITE, write_action, new_value
        )

    # ------------------------------------------------------------------
    # Allocation and eviction.
    # ------------------------------------------------------------------
    def _install(
        self, line_address: int, state: LineState, value: int
    ) -> CacheLine:
        cache = self.cache
        set_index, way, victim = cache.choose_victim(line_address)
        if victim.state.valid:
            victim_address = cache.address_of(set_index, victim.tag)
            self._evict(victim, victim_address)
            self.stats.evictions += 1
        return cache.fill(line_address, state, value, way=way)[2]

    def _evict(self, line: CacheLine, line_address: int) -> None:
        action = self._choose_local(line.state, LocalEvent.FLUSH, line_address)
        self._run_local_action(line_address, LocalEvent.FLUSH, action, None)

    # ------------------------------------------------------------------
    # BusAgent interface (the snooping side).
    # ------------------------------------------------------------------
    def snoop(self, txn: Transaction) -> SnoopResponse:
        found = self.resident.get(txn.address)
        if found is None:
            return _NO_RESPONSE
        set_index, way, line = found
        state = line.state
        if not state.valid:
            return _NO_RESPONSE
        event = txn.event
        tables = self._tables
        if tables is None:
            ctx = SnoopContext(
                address=txn.address,
                sequence=self._seq,
                recency_source=(self.cache, set_index, way),
            )
            try:
                action = self.protocol.snoop_action(state, event, ctx)
            except IllegalTransitionError as exc:
                raise ProtocolGapError(
                    f"{self.unit_id} snooping {txn.describe()}: {exc}"
                ) from exc
        else:
            cell = state.code * 6 + event.code
            action = tables[1][cell]
            if action is None:
                exc = IllegalTransitionError(self.protocol.name, state, event)
                raise ProtocolGapError(
                    f"{self.unit_id} snooping {txn.describe()}: {exc}"
                ) from exc
        if self.transition_observer is not None:
            self.transition_observer(self.unit_id, "snoop", state, event, action)
        if self._trace_sink is not None:
            self._trace_sink(
                self._trace_code("snoop", self.unit_id, state, event, action)
                if tables is None
                else self._trace_snoop + cell
            )
        self._pending = (txn.serial, line, action)
        return action.response

    def transaction_aborted(self, txn: Transaction) -> None:
        if self._pending is not None and self._pending[0] == txn.serial:
            self._pending = None

    def abort_push(self, txn: Transaction, bus: Futurebus) -> None:
        pending = self._pending
        assert pending is not None and pending[0] == txn.serial
        _, line, action = pending
        assert action.abort_push
        self._pending = None
        signals = action.push_signals or _PUSH_SIGNALS
        bus.execute(self.unit_id, txn.address, signals, BusOp.WRITE, line.value)
        self.stats.abort_pushes += 1
        self.stats.write_backs += 1
        next_state = action.next_if_not_ch
        if next_state.valid:
            line.state = next_state
        else:
            line.invalidate()

    def supply_data(self, txn: Transaction) -> int:
        pending = self._pending
        assert pending is not None and pending[0] == txn.serial
        self.stats.interventions_supplied += 1
        return pending[1].value

    def capture_write(self, txn: Transaction) -> None:
        pending = self._pending
        assert pending is not None and pending[0] == txn.serial
        assert txn.value is not None
        pending[1].value = txn.value
        self.stats.writes_captured += 1

    def connect_update(self, txn: Transaction) -> None:
        pending = self._pending
        assert pending is not None and pending[0] == txn.serial
        assert txn.value is not None
        pending[1].value = txn.value
        self.stats.updates_received += 1

    def finalize(self, txn: Transaction, aggregate: ResponseAggregate) -> None:
        pending = self._pending
        if pending is None or pending[0] != txn.serial:
            return
        self._pending = None
        _, line, action = pending
        resolved = action.next_if_ch if aggregate.ch else action.next_if_not_ch
        if resolved.valid:
            line.state = resolved
        else:
            # Only holders of a valid copy are snooped, so dropping the
            # line is always an invalidation received.
            self.stats.invalidations_received += 1
            line.invalidate()

    # ------------------------------------------------------------------
    # Inspection (invariant checking, tests).
    # ------------------------------------------------------------------
    def state_of(self, line_address: int) -> LineState:
        return self.cache.probe_state(line_address)

    def value_of(self, line_address: int) -> Optional[int]:
        line = self._valid_line(line_address)
        return line.value if line is not None else None

    def cached_lines(self):
        """Yield (line_address, state, value) for every valid line."""
        for line_address, line in self.cache.valid_lines():
            yield line_address, line.state, line.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CacheController {self.unit_id} {self.protocol.name}>"


class NonCachingMaster(BusAgent):
    """A board without a cache (I/O processor): every access goes to the
    bus, nothing is retained, bus events are never answered."""

    def __init__(
        self,
        unit_id: str,
        protocol: Protocol,
        bus: Optional[Futurebus] = None,
    ) -> None:
        self.unit_id = unit_id
        self.protocol = protocol
        self.stats = ControllerStats()
        self.bus: Optional[Futurebus] = None
        #: Same hooks as on :class:`CacheController`.
        self.transition_observer = None
        self._trace_sink = None
        self._trace_code = None
        if bus is not None:
            self.attach_to(bus)

    def attach_trace(self, tracer) -> None:
        """Record this board's protocol decisions in a
        :class:`repro.obs.trace.Tracer` (``None`` detaches)."""
        self._trace_sink = None if tracer is None else tracer.transition_sink
        self._trace_code = None if tracer is None else tracer.cell_code

    def attach_to(self, bus: Futurebus) -> None:
        self.bus = bus
        bus.attach(self)

    def _require_bus(self) -> Futurebus:
        if self.bus is None:
            raise RuntimeError(f"{self.unit_id} is not attached to a bus")
        return self.bus

    def _choose_local(self, event: LocalEvent) -> LocalAction:
        action = self.protocol.local_action(LineState.INVALID, event, None)
        if self.transition_observer is not None:
            self.transition_observer(
                self.unit_id, "local", LineState.INVALID, event, action
            )
        if self._trace_sink is not None:
            self._trace_sink(self._trace_code(
                "local", self.unit_id, LineState.INVALID, event, action
            ))
        return action

    def read(self, byte_address: int) -> int:
        self.stats.reads += 1
        self.stats.read_misses += 1
        action = self._choose_local(LocalEvent.READ)
        result = self._require_bus().execute(
            self.unit_id, self._line_address(byte_address), action.signals,
            BusOp.READ, None,
        )
        self.stats.bus_transactions += 1
        assert result.value is not None
        return result.value

    def write(self, byte_address: int, value: int) -> None:
        self.stats.writes += 1
        self.stats.write_misses += 1
        action = self._choose_local(LocalEvent.WRITE)
        self._require_bus().execute(
            self.unit_id, self._line_address(byte_address), action.signals,
            BusOp.WRITE, value,
        )
        self.stats.bus_transactions += 1

    #: Non-caching masters still address whole lines on the bus; the line
    #: size must match the system-wide standard (paper section 5.1).
    line_size: int = 32

    def _line_address(self, byte_address: int) -> int:
        return byte_address // self.line_size

    def snoop(self, txn: Transaction) -> SnoopResponse:
        return SnoopResponse.NONE

    def state_of(self, line_address: int) -> LineState:
        return LineState.INVALID

    def cached_lines(self):
        return iter(())
