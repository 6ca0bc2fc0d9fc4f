"""The MOESI cache-line states and their defining characteristics.

Sweazey & Smith (ISCA '86, section 3.1) observe that every line held in a
copy-back cache can be described by three pairwise-partitioning boolean
characteristics:

* **validity** -- whether the cached copy is usable at all;
* **exclusiveness** -- whether this is guaranteed to be the only cached copy;
* **ownership** -- whether this cache (rather than main memory) is
  responsible for the accuracy of the data for the entire system.

Of the eight combinations only five are meaningful (exclusiveness and
ownership are undefined for invalid data), giving the famous state set:

======================  ==========  =============  ==========
state                   valid       exclusive      owned
======================  ==========  =============  ==========
``MODIFIED``   (M)      yes         yes            yes
``OWNED``      (O)      yes         no             yes
``EXCLUSIVE``  (E)      yes         yes            no
``SHAREABLE``  (S)      yes         no             no
``INVALID``    (I)      no          --             --
======================  ==========  =============  ==========

This module is the single source of truth for the state lattice; the paper's
Figure 3 (three characteristics) and Figure 4 (state pairs) are regenerated
from the predicates defined here (see :mod:`repro.analysis.figures`).
"""

from __future__ import annotations

import enum
from typing import Iterable

__all__ = [
    "LineState",
    "StateCharacteristics",
    "STATE_SYNONYMS",
    "INTERVENIENT_STATES",
    "SOLE_COPY_STATES",
    "UNOWNED_STATES",
    "NON_EXCLUSIVE_STATES",
    "VALID_STATES",
    "state_from_characteristics",
    "parse_state",
]


class LineState(enum.Enum):
    """One of the five MOESI states of a cached line.

    The enum value is the single-letter abbreviation used throughout the
    paper's tables, so ``str(state)`` round-trips with the table notation.
    """

    MODIFIED = "M"
    OWNED = "O"
    EXCLUSIVE = "E"
    SHAREABLE = "S"
    INVALID = "I"

    #: Members are singletons compared by identity, so the C-level
    #: identity hash is consistent with equality and skips
    #: ``Enum.__hash__`` (a Python call) on every dict and set lookup.
    __hash__ = object.__hash__

    # ------------------------------------------------------------------
    # The three characteristics (paper section 3.1.1 - 3.1.3).
    # ------------------------------------------------------------------
    # ``valid`` (section 3.1.1: whether the cached data is usable) is a
    # plain per-member attribute, assigned below -- the coherence checker
    # and cache lookup read it on every access, and a property call there
    # is measurable.  ``code`` is the member's interned integer id (table
    # row order M,O,E,S,I -> 0..4), the row index of the compiled flat
    # transition tables in :mod:`repro.core.transitions`.

    @property
    def exclusive(self) -> bool:
        """Whether this is guaranteed the only cached copy (section 3.1.2).

        Raises :class:`ValueError` for the invalid state, for which
        exclusiveness is undefined ("it is pointless to consider the
        exclusiveness or ownership of a data line that is known to be
        invalid").
        """
        if not self.valid:
            raise ValueError("exclusiveness is undefined for invalid data")
        return self in (LineState.MODIFIED, LineState.EXCLUSIVE)

    @property
    def owned(self) -> bool:
        """Whether this cache is responsible for the data (section 3.1.3)."""
        if not self.valid:
            raise ValueError("ownership is undefined for invalid data")
        return self in (LineState.MODIFIED, LineState.OWNED)

    # ------------------------------------------------------------------
    # Derived pairwise qualities (paper section 3.1.4, Figure 4).
    # ------------------------------------------------------------------
    @property
    def intervenient(self) -> bool:
        """M and O data are *intervenient*: the holder must intervene on bus
        accesses so that no other module reads stale data from memory."""
        return self.valid and self.owned

    @property
    def sole_copy(self) -> bool:
        """M and E data are the only cached copy; a local modification needs
        no warning to other caches."""
        return self.valid and self.exclusive

    @property
    def must_announce_writes(self) -> bool:
        """S and O data are non-exclusive; a local modification requires a
        bus message (broadcast or invalidate) to the other caches."""
        return self.valid and not self.exclusive

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


for _code, _state in enumerate(LineState):
    _state.code = _code
    _state.valid = _state is not LineState.INVALID
    #: The single-letter abbreviation ('M', 'O', 'E', 'S' or 'I') --
    #: interned alongside ``code`` so hot paths skip a property call.
    _state.letter = _state.value
del _code, _state


#: The paper gives three completely equivalent naming schemes for each state
#: (section 3.1.4); the "salient feature" names are preferred.  Keyed by
#: state, values ordered (salient, modified-terminology, owned-terminology).
STATE_SYNONYMS: dict[LineState, tuple[str, str, str]] = {
    LineState.MODIFIED: ("Modified", "Exclusive modified", "Exclusive owned"),
    LineState.OWNED: ("Owned", "Shareable modified", "Shareable owned"),
    LineState.EXCLUSIVE: ("Exclusive", "Exclusive unmodified", "Exclusive unowned"),
    LineState.SHAREABLE: ("Shareable", "Shareable unmodified", "Shareable unowned"),
    LineState.INVALID: ("Invalid", "Invalid", "Invalid"),
}

#: The four state pairs of Figure 4 and their shared quality.
INTERVENIENT_STATES = frozenset({LineState.MODIFIED, LineState.OWNED})
SOLE_COPY_STATES = frozenset({LineState.MODIFIED, LineState.EXCLUSIVE})
UNOWNED_STATES = frozenset({LineState.EXCLUSIVE, LineState.SHAREABLE})
NON_EXCLUSIVE_STATES = frozenset({LineState.OWNED, LineState.SHAREABLE})

VALID_STATES = frozenset(s for s in LineState if s.valid)


class StateCharacteristics:
    """Explicit (validity, exclusiveness, ownership) triple for a state.

    Provided mainly so the figure generator and the property-based tests can
    enumerate the characteristic space independently from the enum.
    """

    __slots__ = ("valid", "exclusive", "owned")

    def __init__(self, valid: bool, exclusive: bool, owned: bool) -> None:
        self.valid = bool(valid)
        self.exclusive = bool(exclusive)
        self.owned = bool(owned)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateCharacteristics):
            return NotImplemented
        return (self.valid, self.exclusive, self.owned) == (
            other.valid,
            other.exclusive,
            other.owned,
        )

    def __hash__(self) -> int:
        return hash((self.valid, self.exclusive, self.owned))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StateCharacteristics(valid={self.valid}, "
            f"exclusive={self.exclusive}, owned={self.owned})"
        )


def state_from_characteristics(
    valid: bool, exclusive: bool = False, owned: bool = False
) -> LineState:
    """Map a (validity, exclusiveness, ownership) triple to its MOESI state.

    All four (exclusive, owned) combinations of an invalid line collapse to
    :attr:`LineState.INVALID`, reflecting the paper's collapse of eight
    combinations to five states.
    """
    if not valid:
        return LineState.INVALID
    if exclusive and owned:
        return LineState.MODIFIED
    if owned:
        return LineState.OWNED
    if exclusive:
        return LineState.EXCLUSIVE
    return LineState.SHAREABLE


_LETTER_TO_STATE = {state.value: state for state in LineState}


def parse_state(text: str) -> LineState:
    """Parse a state from its single-letter abbreviation or full name.

    >>> parse_state("M") is LineState.MODIFIED
    True
    >>> parse_state("shareable") is LineState.SHAREABLE
    True
    """
    token = text.strip()
    if token.upper() in _LETTER_TO_STATE:
        return _LETTER_TO_STATE[token.upper()]
    for state, names in STATE_SYNONYMS.items():
        if token.lower() in (name.lower() for name in names):
            return state
    raise ValueError(f"unknown MOESI state: {text!r}")


def states_holding_copy(states: Iterable[LineState]) -> list[LineState]:
    """Filter an iterable of states down to those that hold a valid copy."""
    return [s for s in states if s.valid]
