"""The two independent oracles every fuzz scenario runs against.

**Invariant oracle** (:class:`InvariantOracle`): after every scheduled
event, the per-line MOESI invariants of :mod:`repro.core.invariants` must
hold on every line the scenario touches, and every processor read must
return the globally last written token (the read-coherence contract).
This is the paper's section 3.1 definition of consistency, applied
step-by-step.

**Differential oracle** (:class:`DifferentialOracle`): every
(state, event, action) transition any board takes -- observed through the
:meth:`repro.system.system.System.install_transition_observer` hook --
must be reachable in the canonical table for that board's protocol spec:
the MOESI-class closure for class members, the protocol's own paper table
for the adapted foreign protocols (see
:func:`repro.fuzz.scenario.reference_query`).  A protocol implementation
that drifts from its table is caught here even when the drift happens not
to break an invariant on this particular schedule.

The two oracles are deliberately independent: the first knows nothing of
tables, the second nothing of data values.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from repro.system.system import System
from repro.verify.explorer import TransitionQuery

__all__ = ["OracleViolation", "InvariantOracle", "DifferentialOracle"]


@dataclasses.dataclass(frozen=True)
class OracleViolation:
    """One oracle's verdict on one step: which oracle, what went wrong."""

    oracle: str  # "invariant" | "differential"
    detail: str

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.detail}"


class InvariantOracle:
    """Step-wise MOESI invariants plus the read-coherence contract."""

    name = "invariant"

    def __init__(self, system: System, lines: Sequence[int]) -> None:
        self.system = system
        self.lines = tuple(lines)

    def check_read(self, line: int, value: int) -> Optional[OracleViolation]:
        """A processor load must observe the last system-wide write."""
        expected = self.system.last_written_token(line)
        if value != expected:
            return OracleViolation(
                self.name,
                f"stale read on L{line}: got token {value}, "
                f"last write was {expected}",
            )
        return None

    def check_step(self) -> Optional[OracleViolation]:
        """The quiescent-instant invariants over every scheduled line."""
        violations = self.system.check_coherence(self.lines)
        if violations:
            return OracleViolation(
                self.name, "; ".join(str(v) for v in violations)
            )
        return None


class DifferentialOracle:
    """Cross-check observed transitions against canonical tables.

    Install with :meth:`attach`; the observer runs *inside* bus
    transactions, so it never raises -- deviations are queued and drained
    by the runner between steps via :meth:`take_violation`.
    """

    name = "differential"

    def __init__(self, references: dict[str, TransitionQuery]) -> None:
        #: unit id -> the canonical table for that unit's spec.
        self.references = references
        self.transitions_checked = 0
        self._violations: list[OracleViolation] = []

    def attach(self, system: System) -> None:
        system.install_transition_observer(self.observe)

    def observe(self, unit: str, side: str, state, event, action) -> None:
        self.transitions_checked += 1
        # A scenario replays the same handful of transitions thousands of
        # times; the shared reference memoizes each verdict
        # (TransitionQuery.permits), so a repeat costs one dict hit.
        reference = self.references.get(unit)
        if reference is None or reference.permits(side, state, event, action):
            return
        self._violations.append(
            OracleViolation(
                self.name,
                f"{unit} took unreachable {side} transition: "
                f"state {state}, event {event} -> {action.notation()} "
                "(not in the canonical table)",
            )
        )

    def take_violation(self) -> Optional[OracleViolation]:
        """The first queued deviation, if any (drains the queue)."""
        if not self._violations:
            return None
        first = self._violations[0]
        self._violations.clear()
        return first
