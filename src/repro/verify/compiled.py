"""The compiled E1 explorer: the same search on packed integer states.

:class:`repro.verify.explorer.Explorer` restores and snapshots a live
:class:`~repro.system.system.System` for every (state, step, choice).
This module runs the *same* breadth-first search -- same step menu, same
choice-script tree, same canonical signatures, same frontier order --
over flat int tuples, and steps them through the batch kernel's scalar
interpreter (:class:`repro.perf.batch._Kernel`) on a one-row population
of one-set, one-way caches, a shape for which the kernel puts unit
``u``'s line in slot ``u``.  That interpreter is the one the batch
kernel's byte-identity suite already pins to the object engine.

State layout, for ``U`` units and ``L`` lines::

    (state code of each unit, tag of each unit, value of each unit,
     memory word of each line, last written version of each line,
     version counter)

State codes are ``LineState.code`` (M=0 .. I=4); a non-caching unit
holds a permanently invalid slot.

Nondeterministic units (``"full-class"``, ``"moesi-scripted"``) serve
each cell as a tuple of lowered records and pick one through the
explorer's own :class:`~repro.verify.explorer.ScriptedChooser`, so the
kernel walks the same script tree the object protocols would.  Registry
names and the shipped mutants (:data:`~repro.verify.mutations.ALL_MUTANTS`
on their default base) serve the deterministic records of
:func:`repro.core.transitions.lower_batch_tables`; any other callable
keeps the whole search on the object engine, since its cells may read a
context (an address, a sequence number) that fixed tables cannot.

Checks mirror ``System(check=True)``: a read must observe the last
written version, and every line must pass an integer form of the
``System._line_violations`` precheck.  A transition that fails a check
or crashes is replayed from its parent state on the wrapped object
explorer (bus serial included), so violation paths and messages are the
object engine's own.  The object :class:`Explorer` stays the oracle: the tests
compare both searches state for state.

:func:`repro.verify.explorer.explore` imports this module on first use,
so importing :mod:`repro` loads neither it nor the batch kernel.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.core.events import ALL_BUS_EVENTS, ALL_LOCAL_EVENTS
from repro.core.states import LineState
from repro.core.transitions import (
    BatchTables,
    _lower_local_action,
    _lower_snoop_action,
    lower_batch_tables,
)
from repro.perf.batch import (
    EVENT_KIND_CODES,
    BatchGeometry,
    BatchPopulation,
    NotBatchableError,
    _Illegal,
    _Kernel,
    _RowCrash,
    lower_units,
)
from repro.verify.explorer import (
    ExplorationResult,
    Explorer,
    Violation,
    _Step,
    _branch,
    _timed_search,
)
from repro.verify.mutations import ALL_MUTANTS

__all__ = ["CompiledExplorer"]

_INVALID = LineState.INVALID.code
_STATES = tuple(LineState)
#: Step kinds: the kernel's schedule codes plus the explorer's own
#: silent downgrade (relaxations 9/10).
_KIND_CODES = {**EVENT_KIND_CODES, "downgrade": 4}
#: M -> O and E -> S; the other states have no silent downgrade.
_DOWNGRADE = {
    LineState.MODIFIED.code: LineState.OWNED.code,
    LineState.EXCLUSIVE.code: LineState.SHAREABLE.code,
}
_PUSHABLE = (LineState.MODIFIED.code, LineState.OWNED.code)

#: Lowered choice cells of the two scripted specs: pure functions of the
#: class tables, lowered once per process.
_CHOICE_CELLS: dict[str, tuple] = {}
#: Lowered tables (or None) of stock mutants, per mutant class: the
#: mutant suite builds a fresh instance for every exploration.
_STOCK_MUTANTS: dict[type, object] = {}


class _PickedCells:
    """A cell sequence whose lookup picks one lowered record through the
    shared chooser -- the policy consult of a scripted protocol."""

    __slots__ = ("cells", "pick")

    def __init__(self, cells: tuple, pick) -> None:
        self.cells = cells
        self.pick = pick

    def __len__(self) -> int:  # BatchTables checks the cell count
        return len(self.cells)

    def __getitem__(self, index: int):
        choices = self.cells[index]
        if not choices:
            return None  # the "--" cell: IllegalTransitionError
        return choices[self.pick(len(choices))]


def _choice_cells(spec: str, protocol) -> tuple:
    """``(local, snoop)`` tuples of lowered choice tuples for a scripted
    spec; ``protocol.local_cell`` is exactly what its policy picks from."""
    cells = _CHOICE_CELLS.get(spec)
    if cells is None:
        cells = _CHOICE_CELLS[spec] = (
            tuple(
                tuple(map(_lower_local_action, protocol.local_cell(s, e)))
                for s in LineState
                for e in ALL_LOCAL_EVENTS
            ),
            tuple(
                tuple(map(_lower_snoop_action, protocol.snoop_cell(s, e)))
                for s in LineState
                for e in ALL_BUS_EVENTS
            ),
        )
    return cells


def _lower_unit(spec, protocol, pick):
    """Kernel tables for one unit, or None if it must stay on objects."""
    if spec in ("full-class", "moesi-scripted"):
        local, snoop = _choice_cells(spec, protocol)
        return BatchTables(
            protocol.name,
            False,
            _PickedCells(local, pick),
            _PickedCells(snoop, pick),
        )
    if isinstance(spec, str):
        try:
            return lower_units((spec,))[0]
        except NotBatchableError:
            return None
    # The only callables compiled are the shipped mutants on their own
    # default base: fixed override tables over a registry protocol.  Any
    # other callable may read its context (a per-page map keys on the
    # line address), which the lowering probe only samples, so it stays
    # on the object engine.
    kind = type(protocol)
    if kind not in ALL_MUTANTS or not protocol.stock:
        return None
    if kind not in _STOCK_MUTANTS:
        _STOCK_MUTANTS[kind] = lower_batch_tables(protocol)
    return _STOCK_MUTANTS[kind]


class CompiledExplorer:
    """An :class:`Explorer`'s search on packed states.

    Build one with :meth:`lower`; :meth:`run` returns the
    :class:`ExplorationResult` the object search would.
    """

    def __init__(self, explorer: Explorer, tables: list) -> None:
        self.explorer = explorer
        self.label = explorer.label
        units = explorer.units
        n_units, n_lines = len(units), len(explorer.lines)
        kernel = _Kernel(
            BatchPopulation(
                units=tuple(units),
                geometry=BatchGeometry(
                    num_sets=1, associativity=1, lines=n_lines
                ),
                events=[[]],
            ),
            tables,
            "python",
        )
        # A one-row population is stepped one event at a time: plain
        # lists index faster than ``array('q')`` and load by slice.
        for name in (
            "st", "tg", "val", "mem", "lastv", "vctr", "serial", "tr",
        ):
            setattr(kernel, name, list(getattr(kernel, name)))
        self.kernel = kernel
        self.n_units = n_units
        self.n_lines = n_lines
        self.cached = tuple(kernel.cached_units)
        self.menu = tuple(
            (units.index(unit), _KIND_CODES[kind], address, unit, kind)
            for unit, kind, address in explorer._step_menu
        )
        #: Canonical signature -> first packed state reaching it.
        self.reached: dict[tuple, tuple] = {}

    @classmethod
    def lower(cls, explorer: Explorer) -> Optional["CompiledExplorer"]:
        """The compiled form of ``explorer``, or None when some unit's
        protocol selects actions statefully (it stays on the object
        engine, unprobed)."""
        pick = explorer.chooser.pick
        tables = []
        for spec, unit in zip(explorer.specs, explorer.units):
            lowered = _lower_unit(
                spec, explorer.system.controllers[unit].protocol, pick
            )
            if lowered is None:
                return None
            tables.append(lowered)
        return cls(explorer, tables)

    # ------------------------------------------------------------------
    # Packed states.
    # ------------------------------------------------------------------
    def _pack(self) -> tuple:
        k = self.kernel
        return (*k.st, *k.tg, *k.val, *k.mem, *k.lastv, k.vctr[0])

    def _load(self, state: tuple) -> None:
        k, u, n = self.kernel, self.n_units, self.n_lines
        k.st[:] = state[:u]
        k.tg[:] = state[u:2 * u]
        k.val[:] = state[2 * u:3 * u]
        k.mem[:] = state[3 * u:3 * u + n]
        k.lastv[:] = state[3 * u + n:3 * u + 2 * n]
        k.vctr[0] = state[-1]

    def _signature(self) -> tuple:
        """The object explorer's canonical signature, in integer form:
        data tokens ranked, per caching unit ``I`` or ``(state, tag,
        value rank)``, then memory and last-version ranks."""
        k = self.kernel
        st, tg, val = k.st, k.tg, k.val
        cached = self.cached
        words = k.mem + k.lastv
        rank = sorted(
            {*words, *[val[u] for u in cached if st[u] != _INVALID]}
        ).index
        return (
            *[
                _INVALID if st[u] == _INVALID else (st[u], tg[u], rank(val[u]))
                for u in cached
            ],
            *map(rank, words),
        )

    def _object_snapshot(self, state: tuple) -> tuple:
        """``state`` in the object explorer's snapshot shape."""
        u, n = self.n_units, self.n_lines
        non_caching = self.kernel.non_caching
        units = tuple(
            None
            if non_caching[i]
            else (_STATES[state[i]], state[2 * u + i], state[u + i])
            for i in range(u)
        )
        return (
            units,
            state[3 * u:3 * u + n],
            state[3 * u + n:3 * u + 2 * n],
            state[-1],
        )

    @property
    def signatures(self) -> set:
        """Every reached state's signature, in the object explorer's
        form (comparable with ``Explorer.signatures``)."""
        sign = self.explorer._signature
        return {
            sign(self._object_snapshot(state))
            for state in self.reached.values()
        }

    # ------------------------------------------------------------------
    # Steps and checks.
    # ------------------------------------------------------------------
    def _clean(self) -> bool:
        """``System._line_violations`` precheck on every line, over the
        kernel lists."""
        k = self.kernel
        st, tg, val, mem = k.st, k.tg, k.val, k.mem
        for la, expected in enumerate(k.lastv):
            n_valid = n_owners = 0
            sole = False
            for u in self.cached:
                state = st[u]
                if state == _INVALID or tg[u] != la:
                    continue
                if val[u] != expected:
                    return False  # stale copy
                n_valid += 1
                if state <= 1:  # M, O: intervenient
                    n_owners += 1
                if state == 0 or state == 2:  # M, E: sole copy
                    sole = True
            if n_owners > 1 or (sole and n_valid > 1):
                return False
            if n_owners == 0 and mem[la] != expected:
                return False  # memory stale with no owner
        return True

    def _applies(self, state: tuple, u: int, kind: int, la: int) -> bool:
        """The object explorer's applicability rule for replacement and
        downgrade steps, read off the packed state without loading it:
        a flush needs a valid copy of the line, a pass an M/O copy, a
        downgrade an M/E copy; cacheless boards take none of them."""
        if kind < 2:
            return True
        code = state[u]
        if (
            self.kernel.non_caching[u]
            or code == _INVALID
            or state[self.n_units + u] != la
        ):
            return False
        if kind == 3:
            return code in _PUSHABLE
        return kind == 2 or code in _DOWNGRADE

    def _step(self, u: int, kind: int, la: int):
        """Run one applicable step on the loaded state: ``None`` when an
        illegal cell makes it inapplicable, ``True`` when it ran and
        passed the read check, ``False`` when it crashed or read a stale
        token."""
        k = self.kernel
        if kind == 4:
            k.st[u] = _DOWNGRADE[k.st[u]]
            return True
        try:
            token = k.run_event(0, u, kind, la)
        except _Illegal:
            return None
        except _RowCrash:
            return False
        return kind != 0 or token == k.lastv[la]

    def _replay(self, state: tuple, serial: int, step: _Step) -> Optional[str]:
        """The object engine's verdict on ``step`` from ``state``: its
        error string, or None if it found nothing."""
        explorer = self.explorer
        explorer._restore(self._object_snapshot(state))
        explorer.system.bus._serial = serial
        return explorer._run_step(step)

    # ------------------------------------------------------------------
    def run(self) -> ExplorationResult:
        """Breadth-first search over canonical states."""
        return _timed_search(
            self.explorer.profiler, self.label, self._run_search
        )

    def _run_search(self) -> ExplorationResult:
        explorer = self.explorer
        chooser = explorer.chooser
        max_states = explorer.max_states
        serial = self.kernel.serial
        load, step_once = self._load, self._step
        applies, pack = self._applies, self._pack
        #: Packed states already checked clean: the same child recurs
        #: across choice scripts and parents far more often than a new
        #: canonical state appears.
        clean: set[tuple] = set()
        initial = self._pack()
        reached = self.reached
        reached[self._signature()] = initial
        frontier: deque[tuple] = deque([(initial, ())])
        violations: list[Violation] = []
        transitions = 0
        complete = True

        while frontier:
            if len(reached) > max_states:
                complete = False
                break
            state, path = frontier.popleft()
            for u, kind, la, unit, kind_name in self.menu:
                if not applies(state, u, kind, la):
                    continue
                # The object search's choice-tree enumeration (see
                # Explorer._run_search).
                pending: list[tuple[int, ...]] = [()]
                while pending:
                    script = pending.pop()
                    load(state)
                    chooser.begin(script)
                    serial_before = serial[0]
                    outcome = step_once(u, kind, la)
                    if outcome is None:
                        break  # applicability is choice-independent
                    taken = _branch(script, chooser.arities, pending)
                    transitions += 1
                    if outcome:
                        child = pack()
                        if child in clean:
                            continue  # checked, and its signature reached
                        if self._clean():
                            clean.add(child)
                            signature = self._signature()
                            if signature not in reached:
                                reached[signature] = child
                                frontier.append(
                                    (
                                        child,
                                        path
                                        + (_Step(unit, kind_name, taken, la),),
                                    )
                                )
                            continue
                    step = _Step(unit, kind_name, taken, la)
                    error = self._replay(state, serial_before, step)
                    if error is None:  # pragma: no cover - a kernel bug
                        raise AssertionError(
                            f"{self.label}: compiled step {step} failed a "
                            "check the object engine passes"
                        )
                    violations.append(Violation(path + (step,), error))
        return ExplorationResult(
            label=self.label,
            states_explored=len(reached),
            transitions_taken=transitions,
            violations=violations,
            complete=complete,
        )
