"""Exhaustive state-space exploration of small coherent systems.

This is the executable form of the paper's central claim (section 3.4):

    "any system component can select (dynamically) any action permitted by
    any protocol in the class, and be assured that consistency is
    maintained throughout the system."

The explorer drives a real system (real controllers, real bus engine, real
memory) on one line address -- or, with ``lines=2``, on two addresses
aliasing a single cache frame, so capacity evictions and write-backs join
the explored space -- enumerating every interleaving of local events
across all units *and* every permitted action choice at each step,
deduplicating states up to renaming of data tokens.  After every step it
checks the MOESI invariants and the read-coherence contract; any stale
read, broken invariant, multiple-intervention bus error or bus livelock is
reported as a violation with its full reproduction path.

Three kinds of runs matter:

* **class mixes** -- any combination of class members (MOESI under any
  policy, Berkeley, Dragon, write-through, non-caching, or the full
  relaxation closure via :class:`FullClassProtocol`): zero violations,
  exhaustively;
* **homogeneous foreign protocols** (Write-Once, Illinois, Firefly with
  their BS adaptation): zero violations among themselves;
* **negative controls** -- mutated out-of-class protocols and naive
  foreign/class mixes: the explorer *finds* the violation, demonstrating
  the checker has teeth (see :mod:`repro.verify.mutations`).
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Callable, Optional, Sequence, Union

from repro.bus.futurebus import BusLivelockError
from repro.cache.controller import CacheController, NonCachingMaster
from repro.core.actions import LocalAction, MasterKind, SnoopAction
from repro.core.events import BusEvent, LocalEvent
from repro.core.policy import ActionPolicy
from repro.core.protocol import IllegalTransitionError, Protocol
from repro.core.states import LineState
from repro.core.transitions import (
    MoesiClassTable,
    _same_local_behaviour,
    _same_snoop_behaviour,
    compiled_class_cells,
    shared_class_table,
)
from repro.protocols.moesi import MoesiProtocol
from repro.protocols.registry import make_protocol
from repro.system.system import BoardSpec, CoherenceError, System

__all__ = [
    "ScriptedChooser",
    "ScriptedPolicy",
    "FullClassProtocol",
    "TransitionQuery",
    "ClassTransitionQuery",
    "ProtocolTransitionQuery",
    "Violation",
    "ExplorationResult",
    "Explorer",
    "explore",
]

class ScriptedChooser:
    """A replayable source of choice indices shared by all units.

    During discovery the script is empty and every choice takes index 0
    while its arity is logged; replays then supply explicit indices so the
    explorer can enumerate every combination along a step.
    """

    def __init__(self) -> None:
        self.script: tuple[int, ...] = ()
        self.arities: list[int] = []
        self._position = 0

    def begin(self, script: tuple[int, ...] = ()) -> None:
        self.script = script
        self.arities = []
        self._position = 0

    def pick(self, arity: int) -> int:
        self.arities.append(arity)
        index = (
            self.script[self._position]
            if self._position < len(self.script)
            else 0
        )
        self._position += 1
        if not 0 <= index < arity:
            raise IndexError(f"scripted choice {index} out of range 0..{arity-1}")
        return index


class ScriptedPolicy(ActionPolicy):
    """An action policy driven by a :class:`ScriptedChooser`."""

    name = "scripted"

    def __init__(self, chooser: ScriptedChooser) -> None:
        self.chooser = chooser

    def choose_local(self, state, event, choices, ctx=None):
        return choices[self.chooser.pick(len(choices))]

    def choose_snoop(self, state, event, choices, ctx=None):
        return choices[self.chooser.pick(len(choices))]


class FullClassProtocol(MoesiProtocol):
    """The *entire* MOESI class as one protocol: each cell offers the full
    relaxation closure of permitted actions (not just the literal table
    entries), so exploring it with a scripted policy exercises every
    behaviour any class member could exhibit."""

    def __init__(self, policy: ActionPolicy, name: str = "FullClass") -> None:
        super().__init__(policy, name=name)
        self._table = shared_class_table()
        # Closure cells are immutable, so every full-class instance shares
        # one compiled flat table: each cell is the closed action set
        # sorted by notation, indexed by interned state/event codes -- the
        # explorer's hottest lookup reduced to integer arithmetic.
        cells = compiled_class_cells()
        self._local_cells = cells.local
        self._snoop_cells = cells.snoop

    def local_cell(self, state, event):
        return self._local_cells[state.code * 4 + event.code]

    def snoop_cell(self, state, event):
        return self._snoop_cells[state.code * 6 + event.code]

    def local_action(self, state, event, ctx=None):
        choices = self.local_cell(state, event)
        if not choices:
            raise IllegalTransitionError(self.name, state, event)
        return self.policy.choose_local(state, event, choices, ctx)

    def snoop_action(self, state, event, ctx=None):
        choices = self.snoop_cell(state, event)
        if not choices:
            raise IllegalTransitionError(self.name, state, event)
        return self.policy.choose_snoop(state, event, choices, ctx)


class TransitionQuery:
    """Reachable-transition queries: is a concrete (state, event, action)
    transition one the exhaustive explorer could take?

    The explorer's search space is exactly the canonical tables -- the
    MOESI-class closure for class members, a protocol's own declared cells
    for the adapted foreign protocols.  Exposing that space as a query lets
    step-wise tooling (the fuzzer's differential oracle) cross-check every
    transition a *running* system exhibits against the canonical table,
    without re-running the exhaustive search.
    """

    def permits_local(
        self,
        state: LineState,
        event: LocalEvent,
        action: LocalAction,
    ) -> bool:
        raise NotImplementedError

    def permits_snoop(
        self,
        state: LineState,
        event: BusEvent,
        action: SnoopAction,
    ) -> bool:
        raise NotImplementedError

    def permits(self, side: str, state, event, action) -> bool:
        """Dispatch on ``side`` (``"local"`` / ``"snoop"``) -- the shape
        the transition observer reports.

        Verdicts are memoized per query instance: tables are immutable,
        and the differential oracle asks about the same few cells for
        every transition of a long run.  The memo key hashes natively --
        state and event codes, and the action's identity (re-checked with
        ``is``) -- so a hit never runs a dataclass ``__hash__``; equal
        actions built separately each get their own entry.
        """
        memo = self.__dict__.get("_permits_memo")
        if memo is None:
            memo = self.__dict__["_permits_memo"] = {}
        key = (side, state.code, event.code, id(action))
        entry = memo.get(key)
        if entry is not None and entry[0] is action:
            return entry[1]
        if side == "local":
            verdict = self.permits_local(state, event, action)
        elif side == "snoop":
            verdict = self.permits_snoop(state, event, action)
        else:
            raise ValueError(f"unknown transition side {side!r}")
        # The entry holds the action, so its id cannot be reused while
        # the entry lives.  Protocols hand out shared action objects, so
        # the memo stays at one entry per distinct cell and action.
        memo[key] = (action, verdict)
        return verdict


class ClassTransitionQuery(TransitionQuery):
    """Membership in the MOESI class's relaxation closure (Tables 1-2 plus
    section 3.3 items 9-12) -- the space the full-class explorer walks.

    ``kind`` narrows the Table-1 rows to those a given kind of board may
    use (write-through members are the ``*`` entries, non-caching ``**``).
    """

    def __init__(self, kind: Optional[MasterKind] = None) -> None:
        self.kind = kind
        self._table = shared_class_table()

    def permits_local(self, state, event, action) -> bool:
        if self._table.permits_local(state, event, action, self.kind):
            return True
        # Table 1 annotates only the rows where kinds *differ* (misses,
        # broadcast writes); hit and replacement rows are written once in
        # the copy-back column and shared by every kind.  When the
        # kind-narrowed row is empty the row is one of those shared ones:
        # judge against the unfiltered closure, as membership checking
        # (:func:`repro.core.validation.check_membership`) does.
        if (
            self.kind is not None
            and not self._table.local_action_set(state, event, self.kind)
        ):
            return self._table.permits_local(state, event, action, None)
        return False

    def permits_snoop(self, state, event, action) -> bool:
        return self._table.permits_snoop(state, event, action)

    def reachable_local(self, state, event) -> frozenset[LocalAction]:
        """Every local action the explorer could take at (state, event)."""
        return self._table.local_action_set(state, event, self.kind)

    def reachable_snoop(self, state, event) -> frozenset[SnoopAction]:
        return self._table.snoop_action_set(state, event)


class ProtocolTransitionQuery(TransitionQuery):
    """Membership in one concrete protocol's canonical table.

    Built from a *fresh* canonical instance (registry name or instance), so
    a mutated or buggy protocol running in the system under test deviates
    from this reference -- which is exactly what differential testing needs
    for the adapted foreign protocols (Illinois, Firefly, Write-Once) whose
    BS/abort rows and S-state semantics are deliberately outside the class
    closure.
    """

    def __init__(self, protocol: Union[str, Protocol]) -> None:
        self.protocol = (
            make_protocol(protocol) if isinstance(protocol, str) else protocol
        )
        self._class_fallback = ClassTransitionQuery(self.protocol.kind)

    def permits_local(self, state, event, action) -> bool:
        cell = self.protocol.local_cell(state, event)
        return any(_same_local_behaviour(action, c) for c in cell)

    def permits_snoop(self, state, event, action) -> bool:
        cell = self.protocol.snoop_cell(state, event)
        if any(_same_snoop_behaviour(action, c) for c in cell):
            return True
        # Foreign protocols extended for mixed systems answer bus events
        # outside their own table with the class-preferred response.
        if not cell and getattr(self.protocol, "snoop_default_to_class", False):
            return self._class_fallback.permits_snoop(state, event, action)
        return False

    def reachable_local(self, state, event) -> tuple[LocalAction, ...]:
        return self.protocol.local_cell(state, event)

    def reachable_snoop(self, state, event) -> tuple[SnoopAction, ...]:
        return self.protocol.snoop_cell(state, event)


@dataclasses.dataclass(frozen=True)
class _Step:
    """One explored action: a unit performs an event under a choice script."""

    unit: str
    event: str  # "read", "write", "flush", "pass", "downgrade"
    script: tuple[int, ...] = ()
    line: int = 0

    def __str__(self) -> str:
        suffix = f" choices={list(self.script)}" if self.script else ""
        line = f"[L{self.line}]" if self.line else ""
        return f"{self.unit}.{self.event}{line}{suffix}"


@dataclasses.dataclass
class Violation:
    """A consistency failure, with the path that reproduces it."""

    path: tuple[_Step, ...]
    error: str

    def __str__(self) -> str:
        steps = " -> ".join(str(s) for s in self.path)
        return f"{steps}: {self.error}"


@dataclasses.dataclass
class ExplorationResult:
    """Outcome of one exhaustive exploration."""

    label: str
    states_explored: int
    transitions_taken: int
    violations: list[Violation]
    #: True if the search exhausted the reachable space within its bounds.
    complete: bool

    @property
    def consistent(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        verdict = (
            "consistent"
            if self.consistent
            else f"{len(self.violations)} violation(s)"
        )
        bound = "exhaustive" if self.complete else "bounded"
        return (
            f"{self.label}: {verdict} "
            f"({self.states_explored} states, "
            f"{self.transitions_taken} transitions, {bound})"
        )


ProtocolSpec = Union[str, Callable[[ScriptedChooser], Protocol]]


def _resolve_protocol(spec: ProtocolSpec, chooser: ScriptedChooser) -> Protocol:
    if callable(spec):
        return spec(chooser)
    if spec == "full-class":
        return FullClassProtocol(ScriptedPolicy(chooser))
    if spec == "moesi-scripted":
        return MoesiProtocol(ScriptedPolicy(chooser), name="MOESI(scripted)")
    return make_protocol(spec)


class Explorer:
    """Breadth-first exploration with snapshot/restore and canonical
    deduplication of states."""

    def __init__(
        self,
        protocol_specs: Sequence[ProtocolSpec],
        include_pass: bool = True,
        include_downgrades: bool = True,
        max_states: int = 100_000,
        label: Optional[str] = None,
        lines: int = 1,
        profiler=None,
    ) -> None:
        #: Optional :class:`repro.obs.profile.Profiler` timing the search.
        self.profiler = profiler
        self.specs = tuple(protocol_specs)
        self.chooser = ScriptedChooser()
        protocols = [
            _resolve_protocol(spec, self.chooser) for spec in protocol_specs
        ]
        names = [
            spec if isinstance(spec, str) else protocols[i].name
            for i, spec in enumerate(protocol_specs)
        ]
        self.label = label or "+".join(names)
        boards = [
            BoardSpec(
                unit_id=f"u{i}",
                protocol=protocol,
                num_sets=1,
                associativity=1,
            )
            for i, protocol in enumerate(protocols)
        ]
        self.system = System(boards, check=True, label=self.label)
        self.units = list(self.system.controllers)
        self.include_pass = include_pass
        self.include_downgrades = include_downgrades
        self.max_states = max_states
        if lines < 1:
            raise ValueError("need at least one line")
        # With one set and one way, every explored line aliases the same
        # cache frame, so evictions and write-backs between lines become
        # part of the explored behaviour (lines > 1).
        self.lines = tuple(range(lines))
        # Units, applicable step kinds, and line addresses are all fixed
        # for the explorer's lifetime: resolve the per-unit line objects
        # and the full (unit, kind, address) menu once instead of on every
        # popped frontier state.
        self._unit_lines = tuple(self._unit_line(unit) for unit in self.units)
        self._step_menu = tuple(
            (unit, kind, address)
            for unit in self.units
            for kind in self._step_kinds(unit)
            for address in self.lines
        )

    # ------------------------------------------------------------------
    # Snapshot / restore / canonical signature.
    # ------------------------------------------------------------------
    def _unit_line(self, unit: str):
        board = self.system.controllers[unit]
        if isinstance(board, NonCachingMaster):
            return None
        return board.cache.ways_of(0)[0]

    def _snapshot(self):
        units = tuple(
            [
                None if line is None else (line.state, line.value, line.tag)
                for line in self._unit_lines
            ]
        )
        memory = tuple([self.system.memory.peek(a) for a in self.lines])
        last_version = self.system._last_version
        lasts = tuple([last_version.get(a, 0) for a in self.lines])
        return (units, memory, lasts, self.system._version_counter)

    def _restore(self, snapshot) -> None:
        units, memory, lasts, counter = snapshot
        for line, saved in zip(self._unit_lines, units):
            if line is None:
                continue
            line.state, line.value, line.tag = saved
        for address, mem_value, last in zip(self.lines, memory, lasts):
            self.system.memory.poke(address, mem_value)
            self.system._last_version[address] = last
        self.system._version_counter = counter

    def _signature(self, snapshot):
        units, memory, lasts, _counter = snapshot
        values = set(memory)
        values.update(lasts)
        for saved in units:
            if saved is not None and saved[0].valid:
                values.add(saved[1])
        ranks = {v: i for i, v in enumerate(sorted(values))}
        sig_units = tuple(
            [
                "nc"
                if saved is None
                else (
                    (saved[0].letter, saved[2], ranks[saved[1]])
                    if saved[0].valid
                    else "I"
                )
                for saved in units
            ]
        )
        return (
            sig_units,
            tuple([ranks[v] for v in memory]),
            tuple([ranks[v] for v in lasts]),
        )

    # ------------------------------------------------------------------
    # Step execution.
    # ------------------------------------------------------------------
    def _run_step(self, step: _Step) -> Optional[str]:
        """Execute one step; returns an error string on violation, None on
        success.  Raises ``_SkipStep`` for inapplicable steps."""
        board = self.system.controllers[step.unit]
        address = step.line
        byte_address = address * 32
        self.chooser.begin(step.script)
        try:
            if step.event == "read":
                self.system.read(step.unit, byte_address)
            elif step.event == "write":
                self.system.write(step.unit, byte_address)
            elif step.event == "flush":
                if isinstance(board, NonCachingMaster):
                    raise _SkipStep
                if not board.state_of(address).valid:
                    raise _SkipStep
                board.flush_line(address)
            elif step.event == "pass":
                if isinstance(board, NonCachingMaster):
                    raise _SkipStep
                state = board.state_of(address)
                if state not in (LineState.MODIFIED, LineState.OWNED):
                    raise _SkipStep
                board.clean_line(address)
            elif step.event == "downgrade":
                # Relaxations 9/10: M may become O, E may become S, at any
                # time, silently.
                found = (
                    None
                    if isinstance(board, NonCachingMaster)
                    else board.cache.lookup(address)
                )
                if found is None:
                    raise _SkipStep
                line = found[2]
                if line.state is LineState.MODIFIED:
                    line.state = LineState.OWNED
                elif line.state is LineState.EXCLUSIVE:
                    line.state = LineState.SHAREABLE
                else:
                    raise _SkipStep
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown step event {step.event!r}")
        except IllegalTransitionError:
            raise _SkipStep from None
        except (CoherenceError, BusLivelockError, RuntimeError) as exc:
            return f"{type(exc).__name__}: {exc}"
        violations = self.system.check_coherence(self.lines)
        if violations:
            return "; ".join(str(v) for v in violations)
        return None

    def _step_kinds(self, unit: str) -> list[str]:
        """Applicable step kinds for ``unit``; fixed per explorer, so the
        constructor folds it into the precomputed step menu."""
        kinds = ["read", "write", "flush"]
        if self.include_pass:
            kinds.append("pass")
        if self.include_downgrades:
            protocol = getattr(self.system.controllers[unit], "protocol", None)
            if protocol is not None and not protocol.requires_busy:
                kinds.append("downgrade")
        return kinds

    # ------------------------------------------------------------------
    def run(self) -> ExplorationResult:
        """Breadth-first search over canonical states."""
        return _timed_search(self.profiler, self.label, self._run_search)

    def _run_search(self) -> ExplorationResult:
        initial = self._snapshot()
        seen = {self._signature(initial)}
        frontier: deque[tuple] = deque([(initial, ())])
        violations: list[Violation] = []
        transitions = 0
        complete = True

        while frontier:
            if len(seen) > self.max_states:
                complete = False
                break
            snapshot, path = frontier.popleft()
            for unit, kind, address in self._step_menu:
                # Enumerate the step's choice *tree*: later choice
                # points may appear or vanish depending on earlier
                # picks (e.g. choosing invalidate over broadcast
                # removes the snoopers' update-or-drop choices), so
                # fixed-shape scripts cannot work.  Instead each run's
                # script prefix replays its parent's control flow
                # exactly, and we branch at every choice point the run
                # reached beyond its script.
                pending: list[tuple[int, ...]] = [()]
                while pending:
                    script = pending.pop()
                    self._restore(snapshot)
                    step = _Step(unit, kind, script, address)
                    try:
                        step_error = self._run_step(step)
                    except _SkipStep:
                        break  # applicability is choice-independent
                    taken = _branch(script, self.chooser.arities, pending)
                    step = _Step(unit, kind, taken, address)
                    transitions += 1
                    if step_error is not None:
                        violations.append(
                            Violation(path + (step,), step_error)
                        )
                        continue
                    new_snapshot = self._snapshot()
                    signature = self._signature(new_snapshot)
                    if signature not in seen:
                        seen.add(signature)
                        frontier.append((new_snapshot, path + (step,)))
        #: The canonical signatures of every reached state.
        self.signatures = seen
        return ExplorationResult(
            label=self.label,
            states_explored=len(seen),
            transitions_taken=transitions,
            violations=violations,
            complete=complete,
        )


class _SkipStep(Exception):
    """Internal: the step does not apply in the current state."""


def _timed_search(profiler, label: str, search) -> ExplorationResult:
    """Run ``search()``, inside an ``explorer.frontier`` profiler region
    carrying its state and transition counts when a profiler is set."""
    if profiler is None:
        return search()
    with profiler.region("explorer.frontier", label=label) as meta:
        result = search()
        meta["states"] = result.states_explored
        meta["transitions"] = result.transitions_taken
    return result


def _branch(script: tuple, arities: Sequence[int], pending: list) -> tuple:
    """One run of a step under ``script`` logged ``arities``: push every
    sibling script that branches at a choice point past the script onto
    ``pending``; return the full script the run took (zeros beyond
    ``script``)."""
    taken = script + (0,) * (len(arities) - len(script))
    for pos in range(len(script), len(arities)):
        for index in range(1, arities[pos]):
            pending.append(taken[:pos] + (index,))
    return taken


def explore(
    protocol_specs: Sequence[ProtocolSpec],
    label: Optional[str] = None,
    **kwargs,
) -> ExplorationResult:
    """Build an :class:`Explorer` and run its search.

    ``protocol_specs`` entries are registry names, the special names
    ``"full-class"`` / ``"moesi-scripted"`` (explored over *all* their
    permitted choices), or callables taking the shared chooser.

    When every unit lowers to integer tables the search runs compiled
    (:mod:`repro.verify.compiled`): the same states, transitions and
    violations at a fraction of the cost.  Otherwise -- a protocol that
    selects actions statefully, or a callable other than a shipped
    mutant -- the object search runs.
    """
    from repro.verify.compiled import CompiledExplorer

    explorer = Explorer(protocol_specs, label=label, **kwargs)
    compiled = CompiledExplorer.lower(explorer)
    return (explorer if compiled is None else compiled).run()
