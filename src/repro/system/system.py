"""System builder and the synchronous (atomic-transaction) runner.

A :class:`System` wires processors' cache controllers, main memory, and
the Futurebus together from declarative :class:`BoardSpec` entries --
possibly each board running a *different* protocol, which is the paper's
point ("different boards on the bus can implement different protocols,
provided that each comes from this class", section 3.4).

Running a trace synchronously treats each reference as one atomic step
(the abstraction of the paper's tables); the timed run lives in
:mod:`repro.system.runner`.  After every reference the system can check
the coherence contract at runtime:

* every read must return the *globally last written* token for its line;
* the per-line MOESI invariants of :mod:`repro.core.invariants` hold.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Optional, Sequence, Union

from repro.bus.futurebus import Futurebus
from repro.bus.timing import BusTiming
from repro.cache.cache import SetAssociativeCache
from repro.cache.controller import CacheController, NonCachingMaster
from repro.cache.replacement import replacement_by_name
from repro.core.actions import MasterKind
from repro.core.invariants import (
    CopyView,
    InvariantViolation,
    LineView,
    check_line,
)
from repro.core.protocol import Protocol
from repro.memory.main_memory import MainMemory
from repro.protocols.registry import make_protocol
from repro.system.stats import BusStats, SystemReport
from repro.workloads.trace import Op, ReferenceRecord, Trace

__all__ = ["BoardSpec", "CoherenceError", "System"]

_READ = Op.READ


@dataclasses.dataclass
class BoardSpec:
    """Declarative description of one board on the backplane."""

    unit_id: str
    #: Registry name (see :mod:`repro.protocols.registry`) or an instance.
    protocol: Union[str, Protocol] = "moesi"
    num_sets: int = 64
    associativity: int = 2
    line_size: int = 32
    replacement: str = "lru"

    def make_protocol(self) -> Protocol:
        if isinstance(self.protocol, Protocol):
            return self.protocol
        return make_protocol(self.protocol)


class CoherenceError(AssertionError):
    """A runtime coherence violation (stale read or broken invariant)."""


class System:
    """N boards + memory + Futurebus, with global write-version tracking."""

    def __init__(
        self,
        boards: Sequence[BoardSpec],
        timing: Optional[BusTiming] = None,
        check: bool = True,
        label: str = "system",
    ) -> None:
        if not boards:
            raise ValueError("a system needs at least one board")
        self.label = label
        self.check = check
        self.bus_stats = BusStats()
        self.memory = MainMemory()
        self.bus = Futurebus(self.memory, timing=timing, stats=self.bus_stats)
        self.controllers: dict[str, Union[CacheController, NonCachingMaster]] = {}
        self.line_size: Optional[int] = None
        for spec in boards:
            self._add_board(spec)
        #: Each caching board's resident map, for the per-access
        #: invariant precheck (boards are fixed from here on, the maps are
        #: updated in place, and a non-caching master never holds a copy).
        self._residents = [
            board.resident for board in self.controllers.values()
            if isinstance(board, CacheController)
        ]
        #: Last written token per line address (the coherence oracle).
        self._last_version: dict[int, int] = {}
        self._version_counter = 0
        self.accesses = 0
        #: The attached :class:`repro.obs.trace.Tracer`, or None.
        self.tracer = None

    # ------------------------------------------------------------------
    def _add_board(self, spec: BoardSpec) -> None:
        protocol = spec.make_protocol()
        if protocol.kind is MasterKind.NON_CACHING:
            master = NonCachingMaster(spec.unit_id, protocol, self.bus)
            master.line_size = spec.line_size
            board: Union[CacheController, NonCachingMaster] = master
        else:
            cache = SetAssociativeCache(
                num_sets=spec.num_sets,
                associativity=spec.associativity,
                line_size=spec.line_size,
                replacement=replacement_by_name(
                    spec.replacement, spec.num_sets, spec.associativity
                ),
            )
            board = CacheController(spec.unit_id, protocol, cache, self.bus)
        if self.line_size is None:
            self.line_size = spec.line_size
        elif self.line_size != spec.line_size:
            # Paper section 5.1: the working group requires a uniform
            # system line size; repro.ext.linesize demonstrates why.
            raise ValueError(
                f"line size mismatch: {spec.unit_id} uses {spec.line_size}, "
                f"system standard is {self.line_size}"
            )
        self.controllers[spec.unit_id] = board

    @classmethod
    def homogeneous(
        cls,
        protocol: str,
        n: int,
        label: Optional[str] = None,
        **board_kwargs,
    ) -> "System":
        """N identical boards running ``protocol``."""
        boards = [
            BoardSpec(unit_id=f"cpu{i}", protocol=protocol, **board_kwargs)
            for i in range(n)
        ]
        return cls(boards, label=label or f"{protocol} x{n}")

    # ------------------------------------------------------------------
    # Synchronous execution.
    # ------------------------------------------------------------------
    def read(self, unit: str, byte_address: int) -> int:
        """One processor load, with the read-coherence check."""
        self.accesses += 1
        value = self.controllers[unit].read(byte_address)
        if self.check:
            line_address = byte_address // self.line_size
            expected = self._last_version.get(line_address, 0)
            if value != expected:
                raise CoherenceError(
                    f"{unit} read 0x{byte_address:x}: got token {value}, "
                    f"last write was {expected}"
                )
            violations = self._line_violations(line_address)
            if violations:
                raise CoherenceError("; ".join(str(v) for v in violations))
        return value

    def write(self, unit: str, byte_address: int) -> int:
        """One processor store; the system allocates the version token."""
        self.accesses += 1
        self._version_counter += 1
        token = self._version_counter
        self.controllers[unit].write(byte_address, token)
        line_address = byte_address // self.line_size
        self._last_version[line_address] = token
        if self.check:
            violations = self._line_violations(line_address)
            if violations:
                raise CoherenceError("; ".join(str(v) for v in violations))
        return token

    def apply(self, record: ReferenceRecord) -> None:
        if record.op is Op.READ:
            self.read(record.unit, record.address)
        else:
            self.write(record.unit, record.address)

    def run_trace(self, trace: Union[Trace, Iterable[ReferenceRecord]]) -> None:
        read = self.read
        write = self.write
        for record in trace:
            if record.op is _READ:
                read(record.unit, record.address)
            else:
                write(record.unit, record.address)

    # ------------------------------------------------------------------
    # Observation hooks.
    # ------------------------------------------------------------------
    def install_transition_observer(self, observer) -> None:
        """Subscribe ``observer(unit_id, side, state, event, action)`` to
        every protocol decision on every board.

        ``side`` is ``"local"`` (Table 1) or ``"snoop"`` (Table 2); the
        action is the one the protocol *chose*, before conditional-state
        resolution -- exactly what the tables print.  Pass ``None`` to
        unsubscribe.  The fuzzer's differential oracle is the main client.
        """
        for board in self.controllers.values():
            board.transition_observer = observer

    def attach_tracer(self, tracer) -> None:
        """Wire a :class:`repro.obs.trace.Tracer` into the bus and every
        board's transition trace hook (``None`` detaches).  Orthogonal to
        :meth:`install_transition_observer`, so a traced run can still
        carry the fuzzer's oracle."""
        from repro.obs.trace import attach_tracer as _attach

        _attach(self, tracer)
        self.tracer = tracer

    def metrics(self):
        """Snapshot this system's counters as a
        :class:`repro.obs.metrics.MetricsRegistry`."""
        from repro.obs.metrics import system_metrics

        return system_metrics(self)

    def last_written_token(self, line_address: int) -> int:
        """The globally last written version token for ``line_address``
        (0 if the line was never written) -- the read-coherence oracle."""
        return self._last_version.get(line_address, 0)

    # ------------------------------------------------------------------
    # Coherence checking.
    # ------------------------------------------------------------------
    def line_view(self, line_address: int) -> LineView:
        expected = self._last_version.get(line_address, 0)
        copies = []
        for unit_id, board in self.controllers.items():
            state = board.state_of(line_address)
            if not state.valid:
                continue
            value = board.value_of(line_address)  # type: ignore[union-attr]
            copies.append(
                CopyView(unit=unit_id, state=state, fresh=(value == expected))
            )
        return LineView.of(
            copies,
            memory_fresh=(self.memory.peek(line_address) == expected),
            address=line_address,
        )

    def check_coherence(
        self, line_addresses: Optional[Iterable[int]] = None
    ) -> list[InvariantViolation]:
        """Check the MOESI invariants on the given (or all known) lines."""
        if line_addresses is None:
            known: set[int] = set(self._last_version)
            known.update(self.memory.addresses())
            # Every valid copy has its resident-map entry (a non-caching
            # master holds none), so the maps stand in for a sweep of
            # every way of every cache.
            for resident in self._residents:
                known.update([
                    line_address
                    for line_address, slot in resident.items()
                    if slot[2].state.valid
                ])
            line_addresses = sorted(known)
        violations: list[InvariantViolation] = []
        for line_address in line_addresses:
            violations.extend(self._line_violations(line_address))
        return violations

    def _line_violations(self, line_address: int):
        """``check_line`` on this line's view, behind a one-pass precheck.

        The check runs after *every* checked access, and building the
        :class:`LineView`/:class:`CopyView` snapshot and composing five
        checkers per access dominated the synchronous runner.  The
        precheck reads each caching board's resident map and returns
        ``()`` when ``check_line`` would find nothing; any doubt falls
        back to the full checker, for identical diagnostics.
        """
        expected = self._last_version.get(line_address, 0)
        n_valid = 0
        n_owners = 0
        sole_copy_seen = False
        for resident in self._residents:
            found = resident.get(line_address)
            if found is None:
                continue
            line = found[2]
            state = line.state
            if not state.valid:
                continue
            if line.value != expected:
                break  # stale copy (COPIES/OWNER_CURRENT)
            n_valid += 1
            if state.intervenient:
                n_owners += 1
            if state.sole_copy:
                sole_copy_seen = True
        else:
            if (
                n_owners <= 1  # SINGLE_OWNER
                and not (sole_copy_seen and n_valid > 1)  # EXCLUSIVE_IS_SOLE
                and (  # MEMORY_CURRENT_IF_UNOWNED
                    n_owners or self.memory.peek(line_address) == expected
                )
            ):
                return ()
        return check_line(self.line_view(line_address))

    # ------------------------------------------------------------------
    # Reporting.
    # ------------------------------------------------------------------
    def report(self, elapsed_ns: float = 0.0) -> SystemReport:
        caching = [
            c for c in self.controllers.values()
            if isinstance(c, CacheController)
        ]
        total_accesses = sum(
            c.stats.accesses for c in self.controllers.values()
        )
        hits = sum(c.stats.hits for c in caching)
        miss_ratio = 1 - hits / total_accesses if total_accesses else 0.0
        return SystemReport(
            metrics=self.metrics().to_dict(),
            trace=(
                None
                if self.tracer is None
                else (self.tracer, len(self.tracer))
            ),
            label=self.label,
            accesses=total_accesses,
            bus=self.bus_stats,
            miss_ratio=miss_ratio,
            invalidations=sum(
                c.stats.invalidations_received for c in caching
            ),
            updates_received=sum(c.stats.updates_received for c in caching),
            write_backs=sum(c.stats.write_backs for c in caching),
            abort_pushes=sum(c.stats.abort_pushes for c in caching),
            elapsed_ns=elapsed_ns,
        )
