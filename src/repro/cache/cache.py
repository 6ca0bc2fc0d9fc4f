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
        ways = range(associativity)
        #: Per set, one ``(set_index, way, line)`` triple per way, built
        #: once: the resident map's values and every lookup's answer.
        self._slots: list[list[tuple[int, int, CacheLine]]] = [
            [(set_index, way, CacheLine()) for way in ways]
            for set_index in range(num_sets)
        ]
        #: The resident map: line address -> ``(set_index, way, line)`` of
        #: the way whose tag holds that address.  Every way that holds a
        #: valid line has its entry; an entry may outlive its line's
        #: validity (readers test ``line.state.valid``) but never its tag.
        #: :meth:`fill` and :meth:`retag` -- the only writers of a tag --
        #: keep it exact, in place: the controller, the bus and the
        #: system's precheck hold references to this very dict.
        self.resident: dict[int, tuple[int, int, CacheLine]] = {}
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

        One probe of the resident map; validity is read off the line.
        Hot paths (the controller, the bus's holder filter, the system's
        invariant precheck) probe :attr:`resident` directly.
        """
        found = self.resident.get(line_address)
        if found is not None and found[2].state.valid:
            return found
        return None

    def probe_state(self, line_address: int) -> LineState:
        """The directory's answer during snooping: the line's state
        (INVALID when not present)."""
        found = self.resident.get(line_address)
        return found[2].state if found is not None else _INVALID

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
        slots = self._slots[line_address & self._set_mask]
        for slot in slots:
            if not slot[2].state.valid:
                return slot
        set_index = slots[0][0]
        return slots[
            self.replacement.victim(set_index, range(self.associativity))
        ]

    def fill(
        self,
        line_address: int,
        state: LineState,
        value: int,
        way: Optional[int] = None,
    ) -> tuple[int, int, CacheLine]:
        """Install ``line_address`` in the given (or chosen) way.

        Without a ``way``, a line that is already resident is refilled
        in place rather than installed a second time."""
        if way is None:
            found = self.lookup(line_address)
            set_index, way, _ = found or self.choose_victim(line_address)
        else:
            set_index = line_address & self._set_mask
        slot = self._slots[set_index][way]
        line = slot[2]
        self._move(slot, line_address >> self._tag_shift, line_address)
        line.state = state
        line.value = value
        self.replacement.fill(set_index, way)
        return slot

    def retag(self, set_index: int, way: int, tag: int) -> None:
        """Point one way at ``tag``, keeping the resident map exact; call
        it after writing the way's state.  The model checker restores
        snapshots through here."""
        slots = self._slots[set_index]
        slot = slots[way]
        line_address = (tag << self._tag_shift) | set_index
        self._move(slot, tag, line_address)
        if not slot[2].state.valid:
            # A restore rewrites ways one at a time, so another way may
            # hold the same tag validly: the entry stays with that one.
            for other in slots:
                if other[2].tag == tag and other[2].state.valid:
                    self.resident[line_address] = other
                    break

    def _move(self, slot, tag: int, line_address: int) -> None:
        set_index, _, line = slot
        resident = self.resident
        old = (line.tag << self._tag_shift) | set_index
        if resident.get(old) is slot:
            del resident[old]
        line.tag = tag
        resident[line_address] = slot

    # ------------------------------------------------------------------
    # Inspection.
    # ------------------------------------------------------------------
    def valid_lines(self) -> Iterator[tuple[int, CacheLine]]:
        """Yield (line_address, line) for every valid line."""
        for slots in self._slots:
            for set_index, _, line in slots:
                if line.state.valid:
                    yield self.address_of(set_index, line.tag), line

    def occupancy(self) -> int:
        return sum(1 for _ in self.valid_lines())

    def ways_of(self, set_index: int) -> tuple[CacheLine, ...]:
        return tuple(slot[2] for slot in self._slots[set_index])

    def __contains__(self, line_address: int) -> bool:
        return self.lookup(line_address) is not None
