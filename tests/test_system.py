"""The system builder, runtime coherence checking, and reporting."""

import pytest

from repro.system.system import BoardSpec, CoherenceError, System
from repro.workloads.patterns import ping_pong, producer_consumer
from repro.workloads.synthetic import SyntheticConfig, SyntheticWorkload
from repro.workloads.trace import Op, ReferenceRecord, Trace


class TestConstruction:
    def test_homogeneous_builder(self):
        system = System.homogeneous("moesi", 3)
        assert sorted(system.controllers) == ["cpu0", "cpu1", "cpu2"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one board"):
            System([])

    def test_line_size_mismatch_rejected(self):
        """Section 5.1: the system standardizes one line size."""
        with pytest.raises(ValueError, match="line size mismatch"):
            System(
                [
                    BoardSpec("a", line_size=32),
                    BoardSpec("b", line_size=64),
                ]
            )

    def test_protocol_instances_accepted(self):
        from repro.protocols.moesi import MoesiProtocol

        system = System([BoardSpec("a", MoesiProtocol())])
        assert "a" in system.controllers

    def test_non_caching_board(self):
        from repro.cache.controller import NonCachingMaster

        system = System(
            [BoardSpec("io", "non-caching"), BoardSpec("cpu", "moesi")]
        )
        assert isinstance(system.controllers["io"], NonCachingMaster)


class TestVersionedAccess:
    def test_read_of_unwritten_line_returns_zero(self):
        system = System.homogeneous("moesi", 2)
        assert system.read("cpu0", 0) == 0

    def test_write_allocates_monotonic_versions(self):
        system = System.homogeneous("moesi", 2)
        v1 = system.write("cpu0", 0)
        v2 = system.write("cpu1", 0)
        assert v2 > v1

    def test_read_sees_last_write_across_cpus(self):
        system = System.homogeneous("moesi", 3)
        token = system.write("cpu2", 64)
        assert system.read("cpu0", 64) == token

    def test_sub_line_addresses_share_a_version(self):
        system = System.homogeneous("moesi", 2, line_size=32)
        token = system.write("cpu0", 35)
        assert system.read("cpu1", 40) == token  # same 32-byte line


class TestTraceRuns:
    @pytest.mark.parametrize(
        "protocol",
        ["moesi", "berkeley", "dragon", "write-through"],
    )
    def test_patterns_run_clean(self, protocol):
        system = System.homogeneous(protocol, 4)
        system.run_trace(ping_pong(rounds=40, processors=4))
        assert not system.check_coherence()

    @pytest.mark.parametrize("protocol", ["illinois", "write-once", "firefly"])
    def test_foreign_homogeneous_run_clean(self, protocol):
        system = System.homogeneous(protocol, 4)
        system.run_trace(producer_consumer(items=20, consumers=3))
        assert not system.check_coherence()

    def test_apply_routes_ops(self):
        system = System.homogeneous("moesi", 2)
        system.apply(ReferenceRecord("cpu0", Op.WRITE, 0))
        system.apply(ReferenceRecord("cpu1", Op.READ, 0))
        assert system.accesses == 2


class TestCoherenceChecking:
    def test_stale_read_detected(self):
        """Bypass the protocol to corrupt a copy; the next read trips."""
        system = System.homogeneous("moesi", 2)
        system.write("cpu0", 0)
        system.read("cpu1", 0)
        # Corrupt cpu1's copy behind the protocol's back.
        controller = system.controllers["cpu1"]
        controller.cache.lookup(0)[2].value = 12345
        with pytest.raises(CoherenceError):
            system.read("cpu1", 0)

    def test_invariant_violation_detected(self):
        system = System.homogeneous("moesi", 2)
        system.write("cpu0", 0)
        # Forge a second owner.
        from repro.core.states import LineState

        other = system.controllers["cpu1"]
        other.cache.fill(0, LineState.MODIFIED, 1)
        violations = system.check_coherence([0])
        assert violations

    def test_check_disabled_skips_validation(self):
        system = System.homogeneous("moesi", 2, label="unchecked")
        system.check = False
        system.write("cpu0", 0)
        controller = system.controllers["cpu0"]
        controller.cache.lookup(0)[2].value = 999
        system.read("cpu0", 0)  # no exception

    def test_line_view_reports_freshness(self):
        system = System.homogeneous("moesi", 2)
        system.write("cpu0", 0)
        view = system.line_view(0)
        assert view.owners and view.owners[0].fresh
        assert not view.memory_fresh  # read-for-ownership left it stale


class TestReporting:
    def test_report_aggregates(self):
        system = System.homogeneous("moesi", 2)
        system.run_trace(ping_pong(rounds=20))
        report = system.report()
        assert report.accesses == 40  # 20 rounds x (write + read)
        assert report.bus.transactions > 0
        assert 0 <= report.miss_ratio <= 1

    def test_report_row_keys(self):
        system = System.homogeneous("moesi", 2)
        system.write("cpu0", 0)
        row = system.report().row()
        for key in ("system", "accesses", "miss_ratio", "bus_txns"):
            assert key in row

    def test_bus_utilization_requires_elapsed(self):
        system = System.homogeneous("moesi", 2)
        assert system.report().bus_utilization is None
        assert system.report(elapsed_ns=1e6).bus_utilization is not None



class TestCoherenceSweep:
    """``System.check_coherence()`` takes the valid lines from the
    resident maps instead of walking every way of every cache; it must
    check exactly the lines that walk named, and so report the same
    violations."""

    @staticmethod
    def _system(protocols, num_sets, check=True):
        return System(
            [
                BoardSpec(unit_id=f"cpu{i}", protocol=protocol,
                          num_sets=num_sets, associativity=2)
                for i, protocol in enumerate(protocols)
            ],
            check=check,
        )

    @staticmethod
    def _swept_lines(system):
        """The walk over every way ``check_coherence`` used to make."""
        known = set(system._last_version)
        known.update(system.memory.addresses())
        for board in system.controllers.values():
            for line_address, _, _ in board.cached_lines():
                known.add(line_address)
        return sorted(known)

    @staticmethod
    def _checked(system):
        """``check_coherence()``'s violations and the lines it checked."""
        checked = []
        check_line = system._line_violations

        def spy(line_address):
            checked.append(line_address)
            return check_line(line_address)

        system._line_violations = spy
        violations = [str(v) for v in system.check_coherence()]
        return violations, checked

    def _run(self, protocols, num_sets, seed, check=True):
        trace = SyntheticWorkload(
            SyntheticConfig(processors=len(protocols), p_shared=0.4),
            seed=seed,
        ).trace(800)
        system = self._system(protocols, num_sets, check=check)
        system.run_trace(trace)
        violations, checked = self._checked(system)
        swept = self._swept_lines(system)
        assert checked == swept
        assert violations == [
            str(v) for v in system.check_coherence(swept)
        ]
        return violations

    @pytest.mark.parametrize("num_sets", [4, 64])
    @pytest.mark.parametrize(
        "protocols",
        [
            ("moesi",) * 4,
            ("dragon",) * 4,
            ("moesi", "dragon", "write-through", "non-caching"),
        ],
    )
    def test_sweep_names_the_walked_lines(self, protocols, num_sets):
        for seed in range(3):
            assert self._run(protocols, num_sets, seed) == []

    def test_violations_equal_the_walk(self):
        """An incoherent run (a mutant, unchecked) names the same
        violations either way."""
        from repro.verify.mutations import DropOwnershipMutant

        partner = DropOwnershipMutant.partner_spec
        violations = self._run(
            (DropOwnershipMutant(), partner, partner), 4, seed=2,
            check=False,
        )
        assert violations

    def test_sweep_skips_a_stale_resident_entry(self):
        """An entry whose line went invalid stays in the map until its
        way is reused; the sweep must not name a line nobody holds."""
        system = self._system(("moesi", "moesi"), 4)
        system.read("cpu0", 0x40)
        system.read("cpu1", 0x100)
        resident = system.controllers["cpu0"].resident
        resident[2][2].invalidate()  # a clean copy dropped, never written
        assert 2 in resident
        violations, checked = self._checked(system)
        assert violations == []
        assert checked == self._swept_lines(system) == [8]
