"""Set-associative cache directory."""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.line import CacheLine
from repro.core.states import LineState

M, E, S, I = (
    LineState.MODIFIED,
    LineState.EXCLUSIVE,
    LineState.SHAREABLE,
    LineState.INVALID,
)


class TestGeometry:
    def test_address_decomposition(self):
        cache = SetAssociativeCache(num_sets=4, associativity=2, line_size=32)
        assert cache.line_address(0) == 0
        assert cache.line_address(31) == 0
        assert cache.line_address(32) == 1
        assert cache.set_index(5) == 1
        assert cache.tag(5) == 1
        assert cache.address_of(1, 1) == 5

    def test_capacity(self):
        cache = SetAssociativeCache(num_sets=8, associativity=2, line_size=64)
        assert cache.capacity_bytes == 8 * 2 * 64

    @pytest.mark.parametrize("bad", [0, 3, 12])
    def test_non_power_of_two_sets_rejected(self, bad):
        with pytest.raises(ValueError):
            SetAssociativeCache(num_sets=bad)

    def test_non_power_of_two_line_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(line_size=48)

    def test_zero_associativity_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(associativity=0)

    def test_replacement_geometry_must_match(self):
        from repro.cache.replacement import LruPolicy

        with pytest.raises(ValueError, match="geometry mismatch"):
            SetAssociativeCache(num_sets=4, replacement=LruPolicy(8, 2))


class TestLookupAndFill:
    def test_miss_on_empty(self):
        assert SetAssociativeCache().lookup(0) is None

    def test_fill_then_hit(self):
        cache = SetAssociativeCache(num_sets=4, associativity=2)
        cache.fill(5, S, 42)
        found = cache.lookup(5)
        assert found is not None
        _, _, line = found
        assert line.state is S and line.value == 42

    def test_probe_state_invalid_when_absent(self):
        assert SetAssociativeCache().probe_state(7) is I

    def test_conflicting_tags_coexist_up_to_associativity(self):
        cache = SetAssociativeCache(num_sets=4, associativity=2)
        cache.fill(1, S, 0)   # set 1
        cache.fill(5, E, 0)   # same set, different tag
        assert cache.lookup(1) and cache.lookup(5)

    def test_victim_prefers_invalid_way(self):
        cache = SetAssociativeCache(num_sets=4, associativity=2)
        cache.fill(1, S, 0)
        _, way, victim = cache.choose_victim(5)
        assert not victim.valid

    def test_victim_from_replacement_when_full(self):
        cache = SetAssociativeCache(num_sets=4, associativity=2)
        cache.fill(1, S, 0)
        cache.fill(5, S, 0)
        cache.touch(*cache.lookup(1)[:2])  # protect line 1
        _, _, victim = cache.choose_victim(9)
        assert victim.tag == cache.tag(5)

    def test_fill_reuses_named_way(self):
        cache = SetAssociativeCache(num_sets=4, associativity=2)
        cache.fill(1, S, 0, way=1)
        _, way, _ = cache.lookup(1)
        assert way == 1


class TestInspection:
    def test_valid_lines_roundtrip_addresses(self):
        cache = SetAssociativeCache(num_sets=4, associativity=2)
        for address in (0, 2, 5, 9):  # sets 0, 2, 1, 1 -- no overflow
            cache.fill(address, S, address * 10)
        found = dict(cache.valid_lines())
        assert set(found) == {0, 2, 5, 9}
        assert found[5].value == 50

    def test_occupancy(self):
        cache = SetAssociativeCache(num_sets=4, associativity=2)
        cache.fill(0, S, 0)
        cache.fill(1, M, 0)
        assert cache.occupancy() == 2

    def test_contains(self):
        cache = SetAssociativeCache()
        cache.fill(3, E, 0)
        assert 3 in cache and 4 not in cache


class TestCacheLine:
    def test_dirty_tracks_ownership(self):
        line = CacheLine(state=M)
        assert line.dirty
        line.state = LineState.OWNED
        assert line.dirty
        line.state = S
        assert not line.dirty

    def test_invalidate(self):
        line = CacheLine(state=E)
        line.invalidate()
        assert not line.valid


class TestLookupAgainstBruteForce:
    """``lookup`` (mask/shift set and tag, counted way) agrees with a scan
    of every way of every set, and with ``set_index``/``tag``/
    ``address_of``, under random fill and invalidate sequences."""

    @staticmethod
    def _scan(cache, line_address):
        for set_index in range(cache.num_sets):
            for way, line in enumerate(cache.ways_of(set_index)):
                if line.valid and cache.address_of(
                    set_index, line.tag
                ) == line_address:
                    return set_index, way, line
        return None

    @pytest.mark.parametrize("num_sets", [1, 2, 4, 64])
    @pytest.mark.parametrize("associativity", [1, 2, 4])
    def test_random_fill_and_invalidate(self, num_sets, associativity):
        import random

        rng = random.Random(num_sets * 10 + associativity)
        cache = SetAssociativeCache(
            num_sets=num_sets, associativity=associativity
        )
        span = num_sets * associativity * 4
        for step in range(600):
            line_address = rng.randrange(span)
            found = cache.lookup(line_address)
            expected = self._scan(cache, line_address)
            if expected is None:
                assert found is None
            else:
                assert found[:2] == expected[:2]
                assert found[2] is expected[2]
                assert found[0] == cache.set_index(line_address)
                assert found[2].tag == cache.tag(line_address)
                assert cache.address_of(found[0], found[2].tag) == line_address
            if found is not None and rng.random() < 0.3:
                found[2].invalidate()
            elif found is None:
                cache.fill(line_address, rng.choice((M, E, S)), step)
        assert cache.occupancy() > 0


class TestResidentMap:
    """The resident map behind ``lookup``: after random fills,
    state writes, invalidations and snapshot restores (the model
    checker's ``Explorer._restore``), ``lookup`` of every address equals
    a brute-force scan of every way, and the map holds no entry whose
    key disagrees with its way's tag."""

    @staticmethod
    def _scan(cache, line_address):
        for set_index in range(cache.num_sets):
            for way, line in enumerate(cache.ways_of(set_index)):
                if line.state.valid and cache.address_of(
                    set_index, line.tag
                ) == line_address:
                    return set_index, way, line
        return None

    def _check(self, cache, span):
        for line_address in range(span):
            found = cache.lookup(line_address)
            expected = self._scan(cache, line_address)
            if expected is None:
                assert found is None, line_address
            else:
                assert found is not None, line_address
                assert found[:2] == expected[:2]
                assert found[2] is expected[2]
        for line_address, (set_index, way, line) in cache.resident.items():
            assert cache.ways_of(set_index)[way] is line
            assert cache.address_of(set_index, line.tag) == line_address

    @staticmethod
    def _snapshot(cache):
        return [
            [(line.state, line.value, line.tag) for line in cache.ways_of(s)]
            for s in range(cache.num_sets)
        ]

    @staticmethod
    def _restore(cache, snapshot):
        # What Explorer._restore does for its 1x1 caches, on every way.
        for set_index, ways in enumerate(snapshot):
            lines = cache.ways_of(set_index)
            for way, (state, value, tag) in enumerate(ways):
                lines[way].state = state
                lines[way].value = value
                cache.retag(set_index, way, tag)

    @pytest.mark.parametrize(
        "num_sets,associativity", [(1, 1), (4, 2), (64, 2)]
    )
    def test_random_sequences_match_brute_force(self, num_sets, associativity):
        import random

        rng = random.Random(num_sets * 100 + associativity)
        cache = SetAssociativeCache(
            num_sets=num_sets, associativity=associativity
        )
        span = num_sets * associativity * 3
        resident = cache.resident
        snapshots = [self._snapshot(cache)]
        for step in range(400):
            line_address = rng.randrange(span)
            found = cache.lookup(line_address)
            roll = rng.random()
            if found is None:
                cache.fill(line_address, rng.choice((M, E, S)), step)
            elif roll < 0.3:
                found[2].invalidate()
            elif roll < 0.6:
                # A state write through the found line (controller,
                # snoop finalize, explorer downgrade), valid or not.
                found[2].state = rng.choice((M, LineState.OWNED, E, S, I))
            elif roll < 0.8:
                snapshots.append(self._snapshot(cache))
            else:
                self._restore(cache, rng.choice(snapshots))
            assert cache.resident is resident  # updated in place
            self._check(cache, span)

    def test_refill_of_resident_line_reuses_its_way(self):
        cache = SetAssociativeCache(num_sets=4, associativity=2)
        first = cache.fill(5, S, 1)
        again = cache.fill(5, M, 2)
        assert again is first
        assert cache.occupancy() == 1
        assert cache.lookup(5)[2].value == 2

    def test_explorer_restores_keep_lookup_exact(self, monkeypatch):
        """Drive the object model checker (1x1 caches, two aliasing
        lines) and check every board's map after every restore."""
        from repro.verify.explorer import Explorer

        explorer = Explorer(["moesi", "illinois"], lines=2, max_states=400)
        restore = Explorer._restore
        checks = []

        def checked_restore(self, snapshot):
            restore(self, snapshot)
            for board in self.system.controllers.values():
                self_test._check(board.cache, 2)
            checks.append(1)

        self_test = self
        monkeypatch.setattr(Explorer, "_restore", checked_restore)
        explorer.run()
        assert checks
