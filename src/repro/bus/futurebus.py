"""The Futurebus transaction engine.

This module implements the *semantics* of one bus transaction against a set
of snooping agents and main memory, exactly as the paper's facilities
provide them (sections 2 and 3.2):

* the address cycle is broadcast: every attached agent sees every
  transaction and contributes its CH/DI/SL/BS response, combined
  wired-OR -- a cache without a valid copy is in state I, whose Table 2
  row answers nothing and changes nothing, so the bus reads that off
  its resident map instead of calling it (:attr:`BusAgent.resident`);
* if any agent asserts **BS**, the transaction aborts; the asserting
  agent(s) perform their push (an ordinary write transaction of their own),
  and the original transaction then restarts from scratch;
* on reads, the **DI** agent (the owner) preempts memory and supplies the
  data;
* on non-broadcast writes, the DI agent *captures* the write -- memory is
  not updated (the rest of the owner's line may be newer than memory);
* on broadcast transfers, every **SL** connector updates itself, and so
  does main memory ("when a broadcast write is done on the Futurebus, it
  affects all caches holding the line and also main memory", section 4.2);
* the master finally learns the aggregate (notably CH, resolving its
  ``CH:O/M`` / ``CH:S/E`` conditional result states), and every snooper
  applies its chosen transition.

The engine is deliberately *untimed* at this layer -- a transaction is one
atomic step, which is precisely the abstraction of the paper's tables.  A
:class:`~repro.bus.timing.BusTiming` prices each transaction so the
discrete-event simulator (and the statistics) can account for bus
occupancy, including wasted aborted attempts.
"""

from __future__ import annotations

import abc
from typing import Optional, Protocol as TypingProtocol

from repro.bus.timing import DEFAULT_TIMING, BusTiming
from repro.bus.transaction import Transaction, TransactionResult
from repro.core.actions import BusOp
from repro.core.signals import MasterSignals, ResponseAggregate, SnoopResponse

__all__ = ["BusAgent", "MemoryPort", "BusLivelockError", "Futurebus"]

#: The wired-OR of no responses at all.
_QUIET = ResponseAggregate.of(())


class BusLivelockError(RuntimeError):
    """A transaction was aborted more times than the retry bound allows.

    With correctly implemented protocols a retried transaction always
    finds the pushing cache in a non-intervenient state, so seeing this
    indicates a protocol bug -- which is exactly what the tests use it
    for.
    """


class MemoryPort(TypingProtocol):
    """What the bus needs from a main-memory module."""

    def read(self, address: int) -> int: ...

    def write(self, address: int, value: int) -> None: ...


class BusAgent(abc.ABC):
    """A snooping board attached to the Futurebus.

    The bus calls these hooks in transaction order:

    1. :meth:`snoop` on every agent except the master (and except a
       cache without a valid copy, see :attr:`resident`) -- decide and
       stash a response;
    2. if the aggregate carries BS: :meth:`abort_push` on each BS
       asserter, :meth:`transaction_aborted` on everyone else, then the
       whole transaction restarts (back to 1);
    3. data phase: :meth:`supply_data` on the DI agent (reads),
       :meth:`capture_write` on the DI agent (non-broadcast writes), or
       :meth:`connect_update` on each SL connector (broadcast transfers);
    4. :meth:`finalize` on every snooper with the full wired-OR aggregate,
       at which point stashed state transitions are applied.
    """

    unit_id: str = "agent"
    #: The agent's resident map (line address -> ``(set, way, line)``,
    #: see :class:`~repro.cache.cache.SetAssociativeCache`) when it is a
    #: cache that answers only for lines it holds valid -- Table 2's I
    #: row answers nothing and changes nothing, so the bus skips every
    #: hook for a transaction whose line the map does not hold valid.
    #: ``None`` (hierarchy bridges, cacheless masters, any other agent):
    #: snooped on every transaction.
    resident: Optional[dict] = None

    @abc.abstractmethod
    def snoop(self, txn: Transaction) -> SnoopResponse:
        """Inspect the broadcast address cycle; return response signals."""

    def abort_push(self, txn: Transaction, bus: "Futurebus") -> None:
        """Perform the BS push: issue a write-back via ``bus`` and update
        local state.  Only called if this agent's response asserted BS."""
        raise NotImplementedError(
            f"{self.unit_id} asserted BS but does not implement abort_push"
        )

    def transaction_aborted(self, txn: Transaction) -> None:
        """The observed transaction aborted; discard any stashed action."""

    def supply_data(self, txn: Transaction) -> int:
        """Provide the line data (this agent asserted DI on a read)."""
        raise NotImplementedError(
            f"{self.unit_id} asserted DI but does not implement supply_data"
        )

    def capture_write(self, txn: Transaction) -> None:
        """Absorb a non-broadcast write (this agent asserted DI)."""
        raise NotImplementedError(
            f"{self.unit_id} asserted DI but does not implement capture_write"
        )

    def connect_update(self, txn: Transaction) -> None:
        """Update own copy from a broadcast transfer (SL asserted)."""

    def finalize(self, txn: Transaction, aggregate: ResponseAggregate) -> None:
        """Apply the stashed state transition, now that CH etc. are known."""


class Futurebus:
    """The shared backplane: agents + memory + the transaction engine."""

    def __init__(
        self,
        memory: MemoryPort,
        timing: Optional[BusTiming] = None,
        max_retries: int = 8,
        stats: Optional[object] = None,
        trace: Optional[list] = None,
    ) -> None:
        self.memory = memory
        self.timing = timing or DEFAULT_TIMING
        self.max_retries = max_retries
        self.stats = stats
        #: Optional transaction log: (Transaction, TransactionResult) pairs.
        self.trace = trace
        #: Optional structured-trace hook, called as ``observer(txn,
        #: result)`` for every completed transaction --
        #: :meth:`repro.obs.trace.Tracer.bus_transaction` subscribes here.
        self.observer = None
        self._agents: dict[str, BusAgent] = {}
        #: master id -> ``(agent, resident map or None)`` for every *other*
        #: agent, rebuilt on attach/detach.  ``execute`` runs once per
        #: memory reference; recomputing the snooper list there was a
        #: measurable slice of the DES hot path.
        self._fanout: dict[str, tuple[tuple[BusAgent, Optional[dict]], ...]] = {}
        self._serial = 0
        self.busy_ns = 0.0

    # ------------------------------------------------------------------
    def attach(self, agent: BusAgent) -> None:
        if agent.unit_id in self._agents:
            raise ValueError(f"duplicate unit id {agent.unit_id!r}")
        self._agents[agent.unit_id] = agent
        self._fanout.clear()

    def detach(self, unit_id: str) -> None:
        self._agents.pop(unit_id, None)
        self._fanout.clear()

    def _fanout_for(self, master: str) -> tuple:
        fanout = tuple(
            (a, a.resident) for a in self._agents.values() if a.unit_id != master
        )
        self._fanout[master] = fanout
        return fanout

    @property
    def agents(self) -> tuple[BusAgent, ...]:
        return tuple(self._agents.values())

    def agent(self, unit_id: str) -> BusAgent:
        return self._agents[unit_id]

    # ------------------------------------------------------------------
    def execute(
        self,
        master: str,
        address: int,
        signals: MasterSignals,
        op: BusOp,
        value: Optional[int] = None,
        words: Optional[int] = None,
    ) -> TransactionResult:
        """Run one transaction to completion (including aborts/retries)."""
        if op is BusOp.READ_THEN_WRITE:
            raise ValueError(
                "Read>Write is two transactions; the controller must issue "
                "them separately"
            )
        self._serial += 1
        txn = Transaction(master, address, signals, op, value, 0, self._serial)
        duration = 0.0

        fanout = self._fanout.get(master)
        if fanout is None:
            fanout = self._fanout_for(master)
        while True:
            # Snoop the holders: a cache whose line is invalid (or absent)
            # would answer nothing and keep its state (Table 2, row I).
            # Re-filtered on every try, since an abort push changes who
            # holds the line.
            snoopers = []
            responses = []
            for agent, resident in fanout:
                if resident is not None:
                    found = resident.get(address)
                    if found is None or not found[2].state.valid:
                        continue
                snoopers.append(agent)
                responses.append(agent.snoop(txn))
            if not responses:
                # Most transactions find no other holder of the line.
                aggregate = _QUIET
                break
            aggregate = ResponseAggregate.of(responses)

            if aggregate.bs:
                if txn.retries >= self.max_retries:
                    raise BusLivelockError(
                        f"{txn.describe()} aborted {txn.retries} times"
                    )
                duration += self.timing.abort_ns()
                pushers = [
                    a
                    for a, response in zip(snoopers, responses)
                    if response.bs
                ]
                for agent in snoopers:
                    if agent not in pushers:
                        agent.transaction_aborted(txn)
                for agent in pushers:
                    agent.abort_push(txn, self)
                txn.retries += 1
                continue
            break

        value, supplier, connectors = self._data_phase(
            txn, snoopers, responses, aggregate
        )
        duration += self.timing.transaction_ns(
            op,
            signals,
            intervened=aggregate.di,
            words=words,
            connectors=len(connectors),
        )
        result = TransactionResult(
            aggregate, value, supplier, txn.retries, connectors, duration
        )
        self.busy_ns += duration
        if self.stats is not None:
            self.stats.record_transaction(txn, result)
        if self.trace is not None:
            self.trace.append((txn, result))
        if self.observer is not None:
            self.observer(txn, result)
        return result

    # ------------------------------------------------------------------
    def _data_phase(
        self,
        txn: Transaction,
        snoopers: list[BusAgent],
        responses: list[SnoopResponse],
        aggregate: ResponseAggregate,
    ) -> tuple[Optional[int], Optional[str], tuple[str, ...]]:
        """Move the data; returns ``(value, supplier, connectors)``.

        ``execute`` folds these into the single final
        :class:`TransactionResult` once the duration is known.  The
        aggregate says whether any response carries DI or SL, so the
        responders are only sorted out when one does."""
        supplier: Optional[str] = None
        value: Optional[int] = txn.value
        connectors: tuple[str, ...] = ()

        owner: Optional[BusAgent] = None
        if aggregate.di:
            di_agents = [
                agent
                for agent, response in zip(snoopers, responses)
                if response.di
            ]
            if len(di_agents) > 1:
                names = ", ".join(a.unit_id for a in di_agents)
                raise RuntimeError(
                    f"{txn.describe()}: multiple intervenient responders "
                    f"({names}) -- single-owner invariant broken on the bus"
                )
            owner = di_agents[0]

        op = txn.op
        if op is BusOp.READ:
            if owner is not None:
                supplier = owner.unit_id
                value = owner.supply_data(txn)
            else:
                supplier = "memory"
                value = self.memory.read(txn.address)
            txn.value = value
        elif op is BusOp.WRITE:
            if value is None:
                raise ValueError(f"{txn.describe()}: write without data")
            if txn.signals.bc or aggregate.sl:
                # Multi-party transfer: memory and every connector update.
                self.memory.write(txn.address, value)
                if aggregate.sl:
                    sl_agents = [
                        agent
                        for agent, response in zip(snoopers, responses)
                        if response.sl
                    ]
                    for agent in sl_agents:
                        agent.connect_update(txn)
                    connectors = tuple([a.unit_id for a in sl_agents])
                if owner is not None:
                    # An owner responding DI to a broadcast is a protocol
                    # bug; owners connect via SL on broadcasts.
                    raise RuntimeError(
                        f"{txn.describe()}: DI asserted on broadcast write"
                    )
            elif owner is not None:
                # The owner captures; memory is deliberately not updated.
                owner.capture_write(txn)
                supplier = owner.unit_id
            else:
                self.memory.write(txn.address, value)
        # BusOp.NONE: address-only (invalidate); no data moves.

        for agent in snoopers:
            agent.finalize(txn, aggregate)

        return (value if op is BusOp.READ else None, supplier, connectors)
