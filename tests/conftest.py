"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.bus.futurebus import Futurebus
from repro.cache.cache import SetAssociativeCache
from repro.cache.controller import CacheController, NonCachingMaster
from repro.core.actions import MasterKind
from repro.memory.main_memory import MainMemory
from repro.protocols.registry import make_protocol


@pytest.fixture
def force_pool(monkeypatch):
    """Send every multi-item map to the pool: a multi-core host and a
    zero cutover, so no projected cost counts as too cheap."""
    import repro.perf.pool as pool_mod

    monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(pool_mod, "ADAPTIVE_CUTOVER_S", 0.0)


class MiniSystem:
    """A hand-wired bus + memory + controllers rig for scenario tests.

    Unlike :class:`repro.system.System` it performs no automatic coherence
    checking and hands out raw controllers, which scenario tests poke at
    directly.  Values are managed by the test.
    """

    def __init__(self, *protocol_names: str, num_sets: int = 4,
                 associativity: int = 2, line_size: int = 32) -> None:
        self.memory = MainMemory()
        self.bus = Futurebus(self.memory)
        self.units: list = []
        for index, name in enumerate(protocol_names):
            protocol = make_protocol(name)
            unit_id = f"u{index}"
            if protocol.kind is MasterKind.NON_CACHING:
                unit = NonCachingMaster(unit_id, protocol, self.bus)
            else:
                cache = SetAssociativeCache(
                    num_sets=num_sets,
                    associativity=associativity,
                    line_size=line_size,
                )
                unit = CacheController(unit_id, protocol, cache, self.bus)
            self.units.append(unit)

    def __getitem__(self, index: int):
        return self.units[index]

    def states(self, line_address: int = 0) -> str:
        """Compact state string, e.g. 'M,I' -- handy in asserts."""
        return ",".join(
            u.state_of(line_address).letter for u in self.units
        )


@pytest.fixture
def mini():
    """Factory fixture: ``mini('moesi', 'moesi')`` builds a rig."""
    return MiniSystem
