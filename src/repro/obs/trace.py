"""The structured trace bus: typed events from bus, caches and the DES.

Every observable the toolkit produces flows through one :class:`Tracer`
as a :class:`TraceEvent`:

* ``bus`` -- one completed Futurebus transaction, carrying the master's
  CA/IM/BC signals and the wired-OR CH/DI/SL/BS responses, the paper's
  bus-event column, supplier, connectors, retries and duration;
* ``transition`` -- one protocol decision on one board: the
  (state, event, action) table cell that fired, tagged ``local``
  (Table 1) or ``snoop`` (Table 2);
* ``des`` -- discrete-event simulator activity (schedule/fire/retire of
  processor references) with simulated timestamps;
* ``mark`` -- named waypoints (a verification case finishing, a fuzz
  campaign stage) with structured arguments.

Determinism is load-bearing: events carry *logical* time (simulated or
bus-occupancy nanoseconds) and a sequence number -- never wall-clock --
so a traced run is a pure function of its inputs and a parallel run's
merged stream is byte-identical to the serial one.  Wall-clock profiling
lives in :mod:`repro.obs.profile`, deliberately outside this stream.

Zero overhead when off: producers hold ``tracer = None`` and guard every
emission with one attribute test; nothing is formatted, allocated or
dispatched unless a tracer is attached.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Optional

__all__ = ["TraceEvent", "Tracer", "attach_tracer", "bus_event_args"]

#: BusOp -> wire name, filled on first use (importing
#: :mod:`repro.core.actions` at module scope would be circular).
_OP_NAMES: dict = {}


def _op_names() -> dict:
    if not _OP_NAMES:
        from repro.core.actions import BusOp

        _OP_NAMES.update(
            {BusOp.READ: "read", BusOp.WRITE: "write", BusOp.NONE: "addr-only"}
        )
    return _OP_NAMES


def bus_event_args(txn, result) -> dict:
    """The structured payload for one completed Futurebus transaction.

    Shared by :meth:`Tracer.bus_transaction` and the legacy bus-log
    adapter in :mod:`repro.analysis.tracelog`, so a raw
    ``(Transaction, TransactionResult)`` capture and a traced run
    describe the same transaction with the same fields.
    """
    signals = txn.signals
    aggregate = result.aggregate
    op = _op_names().get(txn.op) or str(txn.op)
    return {
        "serial": txn.serial,
        "address": txn.address,
        "op": op,
        "CA": signals.ca,
        "IM": signals.im,
        "BC": signals.bc,
        "CH": aggregate.ch,
        "DI": aggregate.di,
        "SL": aggregate.sl,
        "BS": aggregate.bs,
        "column": txn.event.note,
        "supplier": result.supplier,
        "connectors": list(result.connectors),
        "retries": result.retries,
        "duration_ns": round(result.duration_ns, 3),
    }


@dataclasses.dataclass
class TraceEvent:
    """One structured trace record.

    ``t_ns`` is logical time: the tracer's bus-occupancy clock for ``bus``
    and ``transition`` events, simulated time for ``des`` events.  ``seq``
    is the global emission index (total order).  ``stream`` groups events
    from one sub-run (a verification case, one shootout protocol) so
    merged traces stay separable.
    """

    seq: int
    kind: str  # "bus" | "transition" | "des" | "mark"
    name: str
    t_ns: float
    unit: Optional[str] = None
    stream: str = "run"
    args: dict = dataclasses.field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "name": self.name,
            "t_ns": self.t_ns,
            "unit": self.unit,
            "stream": self.stream,
            "args": self.args,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceEvent":
        return cls(
            seq=data["seq"],
            kind=data["kind"],
            name=data["name"],
            t_ns=data["t_ns"],
            unit=data.get("unit"),
            stream=data.get("stream", "run"),
            args=dict(data.get("args", {})),
        )


#: Slots of a bus record before its connectors.
_BUS_WIDTH = 12


#: ``(unit, id(tables))`` -> ``(tables, cells)``: the cell entries of one
#: board's flat tables, local cells then snoop cells.  Tables are shared
#: per protocol class, so this stays small; holding ``tables`` keeps
#: its id valid.
_REGISTERED_CELLS: dict = {}


def _table_cells(unit: str, tables: tuple) -> tuple:
    from repro.core.events import BusEvent, LocalEvent
    from repro.core.states import LineState

    states = sorted(LineState, key=lambda state: state.code)
    cells = []
    for side, events, table in (
        ("local", LocalEvent, tables[0]),
        ("snoop", BusEvent, tables[1]),
    ):
        events = sorted(events, key=lambda event: event.code)
        width = len(events)
        cells.extend(
            None if action is None
            else (side, unit, states[index // width], events[index % width],
                  action)
            for index, action in enumerate(table)
        )
    return tuple(cells)


class Tracer:
    """Collects :class:`TraceEvent` records from every instrumented layer.

    The tracer keeps a logical clock fed by bus-transaction durations, so
    untimed (synchronous) runs still render as a meaningful timeline; DES
    events carry their own simulated timestamps.

    Emission appends one flat record to ``_pending``:

    * a transition is one int, its *cell code*: an index into ``_cells``,
      where each entry is one ``(side, unit, state, event, action)``
      decision.  A board served from flat tables registers them once
      (:meth:`register_tables`) and emits ``base + cell index`` through
      :attr:`transition_sink`, a bound ``list.append`` -- no Python-level
      call per decision; any other board interns each decision through
      :meth:`cell_code`;
    * every other record starts with a string naming its kind, then its
      fields: ``"bus"`` -- master, serial, address, op, master signals,
      response aggregate, bus event, supplier, retries, duration, the
      connector count and then each connector; ``"des"`` -- simulated
      time, unit, name, args; ``"mark"`` -- unit, name, args;
      ``"absorbed"`` -- the :class:`TraceEvent` itself.

    Sequence numbers and logical times are not stored: every record takes
    the next sequence number, and decoding replays the clock (a bus
    record advances it by its duration, a DES record moves it forward to
    its time; transitions and marks read it).  Fields are ints, floats,
    ``None``, the units' own strings and long-lived objects the run
    already holds (ops, events, the signals of the protocol tables, the
    interned response aggregates), so a traced run allocates nothing per
    event that the garbage collector tracks -- a record that held the
    live ``Transaction``/``TransactionResult`` kept three tracked objects
    alive per transaction, and a traced run paid several extra
    collections for them.  :meth:`export` and :attr:`events` decode the
    records.
    """

    enabled = True

    def __init__(self, stream: str = "run") -> None:
        self.stream = stream
        #: Materialized events (the decoded prefix of the stream).
        self._events: list[TraceEvent] = []
        #: Flat records not yet decoded (see the class docstring).
        self._pending: list = []
        #: Records in ``_pending`` that are not transitions, and the
        #: slots they fill: every other slot is a one-slot transition,
        #: so the event count needs no scan.
        self._other_records = 0
        self._other_slots = 0
        #: Cell code -> ``(side, unit, state, event, action)`` (``None``
        #: for an illegal cell of a registered table), and the interning
        #: index of :meth:`cell_code`.
        self._cells: list = []
        self._cell_codes: dict = {}
        #: The logical clock at the end of the materialized prefix.
        self._clock_ns = 0.0
        #: ``append`` of the flat record list (cleared in place, never
        #: rebound): the controllers' trace sink, taking cell codes.
        self.transition_sink = self._pending.append

    def __len__(self) -> int:
        return (
            len(self._events)
            + self._other_records
            + len(self._pending)
            - self._other_slots
        )

    @property
    def events(self) -> list[TraceEvent]:
        """The materialized event stream (total order by ``seq``)."""
        if self._pending:
            self._materialize()
        return self._events

    # ------------------------------------------------------------------
    # Transition cells.
    # ------------------------------------------------------------------
    def register_tables(self, unit: str, tables: tuple) -> tuple[int, int]:
        """Give every cell of a board's flat ``(local, snoop)`` tables
        (:meth:`repro.core.protocol.Protocol.static_tables`) a code;
        returns the local and snoop bases, so a decision's code is
        ``base + cell index``."""
        key = (unit, id(tables))
        entry = _REGISTERED_CELLS.get(key)
        if entry is None:
            entry = _REGISTERED_CELLS[key] = (tables, _table_cells(unit, tables))
        local_base = len(self._cells)
        self._cells.extend(entry[1])
        return local_base, local_base + len(tables[0])

    def cell_code(self, side: str, unit: str, state, event, action) -> int:
        """The code of one decision, interned on first sight (boards whose
        choice depends on a context have no fixed table)."""
        key = (side, unit, state, event, id(action))
        code = self._cell_codes.get(key)
        if code is None:
            code = self._cell_codes[key] = len(self._cells)
            self._cells.append((side, unit, state, event, action))
        return code

    # ------------------------------------------------------------------
    # Emission (flat records; see the class docstring for the layout).
    # ------------------------------------------------------------------
    def bus_transaction(self, txn, result) -> None:
        """Record one completed Futurebus transaction (the hook
        :attr:`repro.bus.futurebus.Futurebus.observer` calls)."""
        connectors = result.connectors
        pending = self._pending
        pending.extend((
            "bus", txn.master, txn.serial, txn.address, txn.op, txn.signals,
            result.aggregate, txn.event, result.supplier, result.retries,
            result.duration_ns, len(connectors),
        ))
        if connectors:
            pending.extend(connectors)
        self._other_records += 1
        self._other_slots += _BUS_WIDTH + len(connectors)

    def des(self, name: str, t_ns: float, unit: str, **args) -> None:
        """Record DES activity (``schedule`` / ``fire`` / ``retire``) at
        simulated time ``t_ns``."""
        self._other_record(("des", t_ns, unit, name, args))

    def mark(self, name: str, unit: Optional[str] = None, **args) -> None:
        """Record a named waypoint with structured arguments."""
        self._other_record(("mark", unit, name, args))

    def _other_record(self, record: tuple) -> None:
        self._pending.extend(record)
        self._other_records += 1
        self._other_slots += len(record)

    # ------------------------------------------------------------------
    # Decoding.
    # ------------------------------------------------------------------
    def _decode(self) -> tuple[list[dict], float]:
        """The pending records as export dicts, in emission order, and
        the clock after the last of them.

        Per-cell names and args are built once per cell code -- a trace
        has thousands of transition records drawn from at most a few
        dozen cells per board."""
        op_names = _op_names()
        stream = self.stream
        cells: dict = {}
        out: list[dict] = []
        append = out.append
        pending = self._pending
        seq = len(self._events)
        clock = self._clock_ns
        i = 0
        end = len(pending)
        while i < end:
            kind = pending[i]
            if kind.__class__ is int:  # a transition: its cell code
                i += 1
                cell = cells.get(kind)
                if cell is None:
                    side, unit, state, event, action = self._cells[kind]
                    cell = cells[kind] = (
                        f"{state.letter}/{event.name}",
                        unit,
                        {
                            "side": side,
                            "state": state.letter,
                            "event": event.name,
                            "action": action.notation(),
                        },
                    )
                append({
                    "seq": seq,
                    "kind": "transition",
                    "name": cell[0],
                    "t_ns": round(clock, 3),
                    "unit": cell[1],
                    "stream": stream,
                    "args": dict(cell[2]),
                })
            elif kind == "bus":
                (_, master, serial, address, op, signals, aggregate, event,
                 supplier, retries, duration,
                 n_connectors) = pending[i:i + _BUS_WIDTH]
                i += _BUS_WIDTH
                connectors = pending[i:i + n_connectors]
                i += n_connectors
                start = clock
                clock = start + duration
                append({
                    "seq": seq,
                    "kind": "bus",
                    "name": event.name,
                    "t_ns": round(start, 3),
                    "unit": master,
                    "stream": stream,
                    "args": {
                        "serial": serial,
                        "address": address,
                        "op": op_names.get(op) or str(op),
                        "CA": signals.ca,
                        "IM": signals.im,
                        "BC": signals.bc,
                        "CH": aggregate.ch,
                        "DI": aggregate.di,
                        "SL": aggregate.sl,
                        "BS": aggregate.bs,
                        "column": event.note,
                        "supplier": supplier,
                        "connectors": connectors,
                        "retries": retries,
                        "duration_ns": round(duration, 3),
                    },
                })
            elif kind == "des":
                _, t_ns, unit, name, args = pending[i:i + 5]
                i += 5
                if t_ns > clock:
                    clock = t_ns
                append({
                    "seq": seq,
                    "kind": "des",
                    "name": name,
                    "t_ns": round(t_ns, 3),
                    "unit": unit,
                    "stream": stream,
                    "args": args,
                })
            elif kind == "mark":
                _, unit, name, args = pending[i:i + 4]
                i += 4
                append({
                    "seq": seq,
                    "kind": "mark",
                    "name": name,
                    "t_ns": round(clock, 3),
                    "unit": unit,
                    "stream": stream,
                    "args": args,
                })
            elif kind == "absorbed":
                append(pending[i + 1].to_dict())
                i += 2
            seq += 1
        return out, clock

    def _materialize(self) -> None:
        """Decode the pending records into :class:`TraceEvent` objects."""
        decoded, self._clock_ns = self._decode()
        self._events.extend(TraceEvent(**data) for data in decoded)
        self._pending.clear()
        self._other_records = 0
        self._other_slots = 0

    # ------------------------------------------------------------------
    # Merging (serial/parallel equivalence).
    # ------------------------------------------------------------------
    def export(self) -> list[dict]:
        """The event stream as plain dicts (picklable, JSON-able).

        Pending records are decoded straight to their dict form; the
        :class:`TraceEvent` hop is only taken for events someone already
        materialized by reading :attr:`events`."""
        out = [event.to_dict() for event in self._events]
        if self._pending:
            out.extend(self._decode()[0])
        return out

    def absorb(
        self, events: Iterable[dict], stream: Optional[str] = None
    ) -> None:
        """Fold a child tracer's exported stream into this one.

        Sequence numbers are reassigned in arrival order and the child's
        logical times are kept verbatim, so absorbing per-case streams in
        input order yields the same bytes whether the children ran
        serially in-process or on a worker pool.
        """
        for data in events:
            event = TraceEvent.from_dict(data)
            if stream is not None:
                event.stream = stream
            event.seq = len(self)
            self._other_record(("absorbed", event))


def attach_tracer(system, tracer: Optional[Tracer]) -> None:
    """Wire ``tracer`` into a System or HierarchicalSystem: the bus-level
    transaction observer plus every controller's transition trace sink.
    Pass ``None`` to detach."""
    hook = None if tracer is None else tracer.bus_transaction
    for attr in ("bus", "global_bus"):
        bus = getattr(system, attr, None)
        if bus is not None:
            bus.observer = hook
    bridges = getattr(system, "bridges", None)
    if bridges:
        for bridge in bridges.values():
            bridge.local_bus.observer = hook
    for board in system.controllers.values():
        board.attach_trace(tracer)
