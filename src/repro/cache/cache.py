"""Set-associative cache directory and data store.

Geometry follows the classic decomposition: a byte address maps to a line
address (``byte // line_size``), the line address to a set
(``line % num_sets``) and a tag (``line // num_sets``).  The paper's
section 5.1 requires the line size to be uniform system-wide; the
:mod:`repro.ext.linesize` demonstrator shows what breaks when it is not.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.cache.line import CacheLine
from repro.cache.replacement import LruPolicy, ReplacementPolicy
from repro.core.states import LineState

__all__ = ["SetAssociativeCache"]

_INVALID = LineState.INVALID


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


class SetAssociativeCache:
    """Tags, states and data tokens for one cache.

    The controller drives it; the cache itself knows nothing about the
    protocol beyond storing each line's :class:`LineState`.
    """

    def __init__(
        self,
        num_sets: int = 64,
        associativity: int = 2,
        line_size: int = 32,
        replacement: Optional[ReplacementPolicy] = None,
    ) -> None:
        if not _is_power_of_two(num_sets):
            raise ValueError(f"num_sets must be a power of two, got {num_sets}")
        if not _is_power_of_two(line_size):
            raise ValueError(f"line_size must be a power of two, got {line_size}")
        if associativity < 1:
            raise ValueError("associativity must be at least 1")
        self.num_sets = num_sets
        self.associativity = associativity
        self.line_size = line_size
        self.replacement = replacement or LruPolicy(num_sets, associativity)
        if (
            self.replacement.num_sets != num_sets
            or self.replacement.associativity != associativity
        ):
            raise ValueError("replacement policy geometry mismatch")
        self._sets: list[list[CacheLine]] = [
            [CacheLine() for _ in range(associativity)] for _ in range(num_sets)
        ]
        # num_sets is a power of two: set = line & mask, tag = line >> shift.
        self._set_mask = num_sets - 1
        self._tag_shift = num_sets.bit_length() - 1

    # ------------------------------------------------------------------
    # Address arithmetic.
    # ------------------------------------------------------------------
    def line_address(self, byte_address: int) -> int:
        return byte_address // self.line_size

    def set_index(self, line_address: int) -> int:
        return line_address % self.num_sets

    def tag(self, line_address: int) -> int:
        return line_address // self.num_sets

    def address_of(self, set_index: int, tag: int) -> int:
        """Reconstruct the line address held by (set, tag)."""
        return tag * self.num_sets + set_index

    @property
    def capacity_bytes(self) -> int:
        return self.num_sets * self.associativity * self.line_size

    # ------------------------------------------------------------------
    # Lookup and allocation.
    # ------------------------------------------------------------------
    def lookup(self, line_address: int) -> Optional[tuple[int, int, CacheLine]]:
        """Find a valid line; returns (set_index, way, line) or None.

        Every processor reference, every snooped transaction and the
        per-access invariant precheck probe here, so the set and tag are
        a mask and a shift, the way is a plain counter, the tag compare
        comes first (a plain attribute), and validity is an identity test
        against INVALID.
        """
        set_index = line_address & self._set_mask
        tag = line_address >> self._tag_shift
        invalid = _INVALID
        way = 0
        for line in self._sets[set_index]:
            if line.tag == tag and line.state is not invalid:
                return set_index, way, line
            way += 1
        return None

    def probe_state(self, line_address: int) -> LineState:
        """The directory's answer during snooping: the line's state
        (INVALID when not present)."""
        found = self.lookup(line_address)
        return found[2].state if found else LineState.INVALID

    def touch(self, set_index: int, way: int) -> None:
        self.replacement.touch(set_index, way)

    def recency(self, set_index: int, way: int) -> float:
        return self.replacement.recency(set_index, way)

    def choose_victim(self, line_address: int) -> tuple[int, int, CacheLine]:
        """Pick the way a fill of ``line_address`` will (re)use.

        Prefers an invalid way; otherwise defers to the replacement
        policy.  Does not modify anything -- the controller first evicts
        the victim (possibly writing it back), then calls :meth:`fill`.
        """
        set_index = self.set_index(line_address)
        ways = self._sets[set_index]
        for way, line in enumerate(ways):
            if not line.valid:
                return set_index, way, line
        way = self.replacement.victim(set_index, range(self.associativity))
        return set_index, way, ways[way]

    def fill(
        self,
        line_address: int,
        state: LineState,
        value: int,
        way: Optional[int] = None,
    ) -> tuple[int, int, CacheLine]:
        """Install ``line_address`` in the given (or chosen) way."""
        set_index = self.set_index(line_address)
        if way is None:
            set_index, way, _ = self.choose_victim(line_address)
        line = self._sets[set_index][way]
        line.tag = self.tag(line_address)
        line.state = state
        line.value = value
        self.replacement.fill(set_index, way)
        return set_index, way, line

    # ------------------------------------------------------------------
    # Inspection.
    # ------------------------------------------------------------------
    def valid_lines(self) -> Iterator[tuple[int, CacheLine]]:
        """Yield (line_address, line) for every valid line."""
        for set_index, ways in enumerate(self._sets):
            for line in ways:
                if line.valid:
                    yield self.address_of(set_index, line.tag), line

    def occupancy(self) -> int:
        return sum(1 for _ in self.valid_lines())

    def ways_of(self, set_index: int) -> tuple[CacheLine, ...]:
        return tuple(self._sets[set_index])

    def __contains__(self, line_address: int) -> bool:
        return self.lookup(line_address) is not None
