"""The snooping cache controller: where protocol, cache and bus meet.

A controller serves its processor's reads and writes against its local
:class:`~repro.cache.cache.SetAssociativeCache`, consults its
:class:`~repro.core.protocol.Protocol` for every local event and every
snooped bus event, and issues/answers Futurebus transactions accordingly.

The paper's central requirement (section 2.1) is honored structurally:
every controller participates in every broadcast address cycle -- the bus
calls :meth:`CacheController.snoop` for each transaction, the controller
checks its directory for a hit and contributes its CH/DI/SL/BS response
before the address cycle may complete.

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
from repro.core.actions import BusOp, LocalAction, SnoopAction, resolve_next_state
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


@dataclasses.dataclass
class _PendingSnoop:
    """The snoop decision stashed between address cycle and finalize."""

    serial: int
    line: CacheLine
    action: SnoopAction
    was_valid: bool


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
        self.stats = ControllerStats()
        self._seq = 0
        self._pending: Optional[_PendingSnoop] = None
        self.bus: Optional[Futurebus] = None
        #: Optional hook called as ``observer(unit_id, side, state, event,
        #: action)`` for every protocol decision this board takes --
        #: ``side`` is ``"local"`` or ``"snoop"``.  The fuzzer's
        #: differential oracle subscribes here to cross-check each observed
        #: transition against the canonical tables.
        self.transition_observer = None
        #: Optional structured-trace hook with the same signature --
        #: :meth:`repro.obs.trace.Tracer.transition` subscribes here.  Kept
        #: separate from :attr:`transition_observer` so tracing a fuzzed
        #: run never displaces the oracle.
        self.trace_observer = None
        if bus is not None:
            self.attach_to(bus)

    def attach_to(self, bus: Futurebus) -> None:
        self.bus = bus
        bus.attach(self)

    def _require_bus(self) -> Futurebus:
        if self.bus is None:
            raise RuntimeError(f"{self.unit_id} is not attached to a bus")
        return self.bus

    def _next_ctx(self, address: int) -> LocalContext:
        self._seq += 1
        return LocalContext(address=address, sequence=self._seq)

    def _choose_local(
        self, state: LineState, event: LocalEvent, ctx: LocalContext
    ) -> LocalAction:
        """Consult the protocol for a local event, notifying the observer."""
        action = self.protocol.local_action(state, event, ctx)
        if self.transition_observer is not None:
            self.transition_observer(self.unit_id, "local", state, event, action)
        if self.trace_observer is not None:
            self.trace_observer(self.unit_id, "local", state, event, action)
        return action

    # ------------------------------------------------------------------
    # Processor port.
    # ------------------------------------------------------------------
    def read(self, byte_address: int) -> int:
        """Processor load; returns the line's data token."""
        line_address = self.cache.line_address(byte_address)
        self.stats.reads += 1
        found = self.cache.lookup(line_address)
        if found is not None:
            set_index, way, line = found
            self.stats.read_hits += 1
            self.stats.hits_by_state[line.state.letter] += 1
            action = self._choose_local(
                line.state, LocalEvent.READ, self._next_ctx(line_address)
            )
            self._apply_silent(line, action)
            self.cache.touch(set_index, way)
            return line.value
        self.stats.read_misses += 1
        action = self._choose_local(
            LineState.INVALID, LocalEvent.READ, self._next_ctx(line_address)
        )
        return self._run_local_action(
            line_address, LocalEvent.READ, action, new_value=None
        )

    def write(self, byte_address: int, value: int) -> None:
        """Processor store of data token ``value``."""
        line_address = self.cache.line_address(byte_address)
        self.stats.writes += 1
        found = self.cache.lookup(line_address)
        if found is not None:
            set_index, way, line = found
            self.stats.write_hits += 1
            self.stats.hits_by_state[line.state.letter] += 1
            action = self._choose_local(
                line.state, LocalEvent.WRITE, self._next_ctx(line_address)
            )
            self._run_local_action(
                line_address, LocalEvent.WRITE, action, new_value=value
            )
            self.cache.touch(set_index, way)
            return
        self.stats.write_misses += 1
        action = self._choose_local(
            LineState.INVALID, LocalEvent.WRITE, self._next_ctx(line_address)
        )
        self._run_local_action(
            line_address, LocalEvent.WRITE, action, new_value=value
        )

    def flush_line(self, line_address: int) -> None:
        """Evict a specific line (push it first if owned)."""
        found = self.cache.lookup(line_address)
        if found is None:
            return
        self._evict(found[2], line_address)

    def clean_line(self, line_address: int) -> None:
        """Proactively push a dirty line but keep the copy (PASS)."""
        found = self.cache.lookup(line_address)
        if found is None:
            return
        line = found[2]
        try:
            action = self._choose_local(
                line.state, LocalEvent.PASS, self._next_ctx(line_address)
            )
        except IllegalTransitionError:
            return  # nothing to push (clean states have no PASS entry)
        self._run_local_action(line_address, LocalEvent.PASS, action, None)

    # ------------------------------------------------------------------
    # Local-action execution.
    # ------------------------------------------------------------------
    def _apply_silent(self, line: CacheLine, action: LocalAction) -> None:
        if not action.is_silent:
            raise AssertionError(
                f"{self.unit_id}: hit action expected silent, got {action}"
            )
        next_state = resolve_next_state(action.next_state, ch_observed=False)
        line.state = next_state

    def _run_local_action(
        self,
        line_address: int,
        event: LocalEvent,
        action: LocalAction,
        new_value: Optional[int],
    ) -> int:
        """Execute one Table-1 action to completion; returns the data token
        the processor observes."""
        found = self.cache.lookup(line_address)
        line = found[2] if found else None

        if action.bus_op is BusOp.READ_THEN_WRITE:
            return self._read_then_write(line_address, action, new_value)

        if action.is_silent:
            # Silent transitions require the line to be present unless the
            # result is invalid (e.g. a clean drop).
            next_state = resolve_next_state(action.next_state, False)
            if line is None:
                if next_state.valid:
                    raise AssertionError(
                        f"{self.unit_id}: silent transition to {next_state} "
                        "without a cached line"
                    )
                return new_value if new_value is not None else 0
            if next_state.valid:
                line.state = next_state
                if event is LocalEvent.WRITE:
                    assert new_value is not None
                    line.value = new_value
            else:
                line.invalidate()
            return line.value

        # A bus transaction is required.
        bus = self._require_bus()
        op = action.bus_op
        wire_value: Optional[int] = None
        if op is BusOp.WRITE:
            if event is LocalEvent.WRITE:
                assert new_value is not None
                wire_value = new_value
            else:
                # PASS/FLUSH push the line's current contents.
                assert line is not None
                wire_value = line.value
        result = bus.execute(
            self.unit_id,
            line_address,
            action.signals,
            op if op is not BusOp.NONE else BusOp.NONE,
            wire_value,
        )
        self.stats.bus_transactions += 1
        resolved = resolve_next_state(action.next_state, result.aggregate.ch)

        # Determine the data token the processor/line ends up with: a local
        # write always ends with the newly written value (even when the bus
        # part was an address-only invalidate or a read-for-ownership whose
        # fetched data is immediately overwritten); a read ends with the
        # supplied data; pushes keep the line's own contents.
        if event is LocalEvent.WRITE:
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
        if event in (LocalEvent.PASS, LocalEvent.FLUSH):
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
        landed = resolve_next_state(action.next_state, result.aggregate.ch)
        assert result.value is not None
        if landed.valid:
            self._install(line_address, landed, result.value)
        write_action = self._choose_local(
            landed, LocalEvent.WRITE, self._next_ctx(line_address)
        )
        if write_action.bus_op is BusOp.READ_THEN_WRITE:
            raise AssertionError(
                f"{self.protocol.name}: Read>Write may not chain into "
                "another Read>Write"
            )
        return self._run_local_action(
            line_address, LocalEvent.WRITE, write_action, new_value
        )

    # ------------------------------------------------------------------
    # Allocation and eviction.
    # ------------------------------------------------------------------
    def _install(
        self, line_address: int, state: LineState, value: int
    ) -> CacheLine:
        set_index, way, victim = self.cache.choose_victim(line_address)
        if victim.valid:
            victim_address = self.cache.address_of(set_index, victim.tag)
            self._evict(victim, victim_address)
            self.stats.evictions += 1
        _, _, line = self.cache.fill(line_address, state, value, way=way)
        return line

    def _evict(self, line: CacheLine, line_address: int) -> None:
        action = self._choose_local(
            line.state, LocalEvent.FLUSH, self._next_ctx(line_address)
        )
        self._run_local_action(line_address, LocalEvent.FLUSH, action, None)

    # ------------------------------------------------------------------
    # BusAgent interface (the snooping side).
    # ------------------------------------------------------------------
    def snoop(self, txn: Transaction) -> SnoopResponse:
        found = self.cache.lookup(txn.address)
        if found is None:
            return SnoopResponse.NONE
        set_index, way, line = found
        ctx = SnoopContext(
            address=txn.address,
            sequence=self._seq,
            recency_source=(self.cache, set_index, way),
        )
        try:
            action = self.protocol.snoop_action(line.state, txn.event, ctx)
        except IllegalTransitionError as exc:
            raise ProtocolGapError(
                f"{self.unit_id} snooping {txn.describe()}: {exc}"
            ) from exc
        if self.transition_observer is not None:
            self.transition_observer(
                self.unit_id, "snoop", line.state, txn.event, action
            )
        if self.trace_observer is not None:
            self.trace_observer(
                self.unit_id, "snoop", line.state, txn.event, action
            )
        self._pending = _PendingSnoop(
            serial=txn.serial, line=line, action=action, was_valid=line.valid
        )
        return action.response

    def transaction_aborted(self, txn: Transaction) -> None:
        if self._pending is not None and self._pending.serial == txn.serial:
            self._pending = None

    def abort_push(self, txn: Transaction, bus: Futurebus) -> None:
        pending = self._pending
        assert pending is not None and pending.serial == txn.serial
        assert pending.action.abort_push
        self._pending = None
        signals = pending.action.push_signals or MasterSignals(ca=True)
        bus.execute(
            self.unit_id, txn.address, signals, BusOp.WRITE, pending.line.value
        )
        self.stats.abort_pushes += 1
        self.stats.write_backs += 1
        next_state = resolve_next_state(pending.action.next_state, False)
        if next_state.valid:
            pending.line.state = next_state
        else:
            pending.line.invalidate()

    def supply_data(self, txn: Transaction) -> int:
        pending = self._pending
        assert pending is not None and pending.serial == txn.serial
        self.stats.interventions_supplied += 1
        return pending.line.value

    def capture_write(self, txn: Transaction) -> None:
        pending = self._pending
        assert pending is not None and pending.serial == txn.serial
        assert txn.value is not None
        pending.line.value = txn.value
        self.stats.writes_captured += 1

    def connect_update(self, txn: Transaction) -> None:
        pending = self._pending
        assert pending is not None and pending.serial == txn.serial
        assert txn.value is not None
        pending.line.value = txn.value
        self.stats.updates_received += 1

    def finalize(self, txn: Transaction, aggregate: ResponseAggregate) -> None:
        pending = self._pending
        if pending is None or pending.serial != txn.serial:
            return
        self._pending = None
        resolved = resolve_next_state(pending.action.next_state, aggregate.ch)
        if resolved.valid:
            pending.line.state = resolved
        else:
            if pending.was_valid:
                self.stats.invalidations_received += 1
            pending.line.invalidate()

    # ------------------------------------------------------------------
    # Inspection (invariant checking, tests).
    # ------------------------------------------------------------------
    def state_of(self, line_address: int) -> LineState:
        return self.cache.probe_state(line_address)

    def value_of(self, line_address: int) -> Optional[int]:
        found = self.cache.lookup(line_address)
        return found[2].value if found else None

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
        self.trace_observer = None
        if bus is not None:
            self.attach_to(bus)

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
        if self.trace_observer is not None:
            self.trace_observer(
                self.unit_id, "local", LineState.INVALID, event, action
            )
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
