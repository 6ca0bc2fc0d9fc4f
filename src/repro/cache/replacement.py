"""Replacement policies for set-associative caches.

Besides choosing victims, a policy exposes each line's **recency** --
its normalized position in the replacement order -- because the paper's
section 5.2 refinement (after Puzak et al.) lets a snooping cache decide
whether to *update* or *discard* a line written by another cache based on
exactly that: "if the line is quite recently used ... it can be updated,
and if it is nearing time for replacement ... it can be discarded."
"""

from __future__ import annotations

import abc
import random
from typing import Sequence

__all__ = [
    "ReplacementPolicy",
    "LruPolicy",
    "FifoPolicy",
    "RandomPolicy",
    "replacement_by_name",
]


class ReplacementPolicy(abc.ABC):
    """Per-set replacement bookkeeping.

    Ways are identified by integer index within a set.  ``touch`` records
    a use, ``fill`` records an allocation, ``victim`` picks the way to
    evict among candidates, and ``recency`` reports a way's position in
    the replacement order normalized to [0, 1] (0 = safest from eviction,
    1 = next to go).
    """

    name = "abstract"

    def __init__(self, num_sets: int, associativity: int) -> None:
        self.num_sets = num_sets
        self.associativity = associativity

    @abc.abstractmethod
    def touch(self, set_index: int, way: int) -> None:
        """A hit (or other use) of this way."""

    @abc.abstractmethod
    def fill(self, set_index: int, way: int) -> None:
        """The way was (re)allocated."""

    @abc.abstractmethod
    def victim(self, set_index: int, candidates: Sequence[int]) -> int:
        """Choose the way to evict; ``candidates`` is never empty."""

    @abc.abstractmethod
    def recency(self, set_index: int, way: int) -> float:
        """Normalized replacement-order position (0 newest .. 1 oldest)."""


class _OrderedPolicy(ReplacementPolicy):
    """Shared machinery for policies that keep a per-set use order.

    ``_order[s]`` lists ways from most- to least-protected; victims come
    from the back.
    """

    def __init__(self, num_sets: int, associativity: int) -> None:
        super().__init__(num_sets, associativity)
        ways = list(range(associativity))
        self._order: list[list[int]] = [ways[:] for _ in range(num_sets)]

    def _move_to_front(self, set_index: int, way: int) -> None:
        order = self._order[set_index]
        order.remove(way)
        order.insert(0, way)

    def victim(self, set_index: int, candidates: Sequence[int]) -> int:
        candidate_set = set(candidates)
        for way in reversed(self._order[set_index]):
            if way in candidate_set:
                return way
        raise ValueError("no candidate way available")

    def recency(self, set_index: int, way: int) -> float:
        order = self._order[set_index]
        if len(order) == 1:
            return 0.0
        return order.index(way) / (len(order) - 1)


class LruPolicy(_OrderedPolicy):
    """Least recently used: every use protects the way."""

    name = "lru"

    def touch(self, set_index: int, way: int) -> None:
        self._move_to_front(set_index, way)

    def fill(self, set_index: int, way: int) -> None:
        self._move_to_front(set_index, way)


class FifoPolicy(_OrderedPolicy):
    """First in, first out: only allocation affects the order."""

    name = "fifo"

    def touch(self, set_index: int, way: int) -> None:
        pass  # hits do not refresh FIFO order

    def fill(self, set_index: int, way: int) -> None:
        self._move_to_front(set_index, way)


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim selection (seeded, hence reproducible)."""

    name = "random"

    def __init__(self, num_sets: int, associativity: int, seed: int = 0) -> None:
        super().__init__(num_sets, associativity)
        self._rng = random.Random(seed)

    def touch(self, set_index: int, way: int) -> None:
        pass

    def fill(self, set_index: int, way: int) -> None:
        pass

    def victim(self, set_index: int, candidates: Sequence[int]) -> int:
        return self._rng.choice(list(candidates))

    def recency(self, set_index: int, way: int) -> float:
        # No order is kept; report the midpoint so recency-based policies
        # behave neutrally.
        return 0.5


_POLICIES = {"lru": LruPolicy, "fifo": FifoPolicy, "random": RandomPolicy}


def replacement_by_name(
    name: str, num_sets: int, associativity: int, **kwargs
) -> ReplacementPolicy:
    """Instantiate a replacement policy by name ('lru', 'fifo', 'random')."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        known = ", ".join(sorted(_POLICIES))
        raise ValueError(f"unknown policy {name!r}; known: {known}") from None
    return cls(num_sets, associativity, **kwargs)
