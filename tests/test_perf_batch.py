"""The struct-of-arrays batch kernel vs the object engine.

The contract under test is absolute: for every population the kernel
accepts, its per-row snapshots are byte-identical to replaying the same
schedule on a real :class:`repro.system.system.System`, on the numpy
backend and the pure-Python ``array`` backend alike.  The sweep below
drives that across every registered protocol on 50 fuzz-seed-derived
schedules; hypothesis then fuzzes the population shape itself.
"""

import pytest

from repro.fuzz.scenario import generate_scenario
from repro.perf.batch import (
    EVENT_KIND_CODES,
    NUMPY_MIN_ROWS,
    BatchGeometry,
    BatchPopulation,
    NotBatchableError,
    available_backends,
    batchable_specs,
    default_backend,
    envelope_geometry,
    lower_units,
    make_synthetic_population,
    replay_row,
    run_batch_specs,
    run_population,
    verify_rows,
)
from repro.protocols.registry import protocol_names

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:
    HAVE_NUMPY = False

FUZZ_SEEDS = 50
NON_BATCHABLE = {
    "moesi-random",
    "moesi-round-robin",
    # Adaptive hybrids carry per-line counters (stateful selection); the
    # lowering rejects them and the object engine runs them instead.
    "moesi-adaptive-threshold",
    "moesi-adaptive-competitive",
}


def _fuzz_population(spec: str, seeds: int = FUZZ_SEEDS) -> BatchPopulation:
    """One population per spec: 50 fuzz-seed event schedules (unit index
    folded to the fixed two-board mix, line addresses already within the
    fixed geometry's range) sharing one geometry so they run as a block."""
    geometry = BatchGeometry(num_sets=2, associativity=1, line_size=32,
                             lines=4)
    events = []
    for seed in range(seeds):
        scenario = generate_scenario(seed)
        events.append(
            [
                (event.unit % 2, EVENT_KIND_CODES[event.kind], event.line)
                for event in scenario.events
            ]
        )
    return BatchPopulation(
        units=(spec, spec),
        geometry=geometry,
        events=events,
        row_ids=tuple(range(seeds)),
    )


class TestRegistrySweep:
    def test_registry_split_is_exhaustive(self):
        specs = set(batchable_specs())
        assert specs == set(protocol_names()) - NON_BATCHABLE

    @pytest.mark.parametrize("spec", sorted(NON_BATCHABLE))
    def test_stateful_selectors_are_rejected(self, spec):
        with pytest.raises(NotBatchableError):
            lower_units((spec,))

    @pytest.mark.parametrize("spec", batchable_specs())
    def test_fuzz_seeds_byte_equivalent_on_every_backend(self, spec):
        """50 fuzz-seed schedules per registered protocol: every backend's
        snapshot of every row equals the object-engine replay, byte for
        byte (tokens, caches, memory, versions, bus counts, crashes)."""
        pop = _fuzz_population(spec)
        results = {
            backend: run_population(pop, backend=backend)
            for backend in available_backends()
        }
        for row in range(pop.rows):
            expected = replay_row(pop, row)
            for backend, result in results.items():
                assert result.snapshots[row] == expected, (
                    f"{spec} row {row} diverged on {backend}"
                )

    def test_verify_rows_reports_no_mismatches(self):
        pop = _fuzz_population("moesi", seeds=10)
        result = run_population(pop)
        assert verify_rows(pop, result) == []


class TestBackends:
    def test_backend_listing(self):
        backends = available_backends()
        assert backends[-1] == "python"
        assert default_backend() == backends[0]
        if HAVE_NUMPY:
            assert backends == ("numpy", "python")

    def test_default_backend_by_row_count(self):
        wide = "numpy" if HAVE_NUMPY else "python"
        assert default_backend(1) == "python"
        assert default_backend(NUMPY_MIN_ROWS - 1) == "python"
        assert default_backend(NUMPY_MIN_ROWS) == wide
        assert default_backend(4 * NUMPY_MIN_ROWS) == wide

    def test_population_runs_on_its_own_default(self):
        for rows in (NUMPY_MIN_ROWS - 1, NUMPY_MIN_ROWS):
            pop = make_synthetic_population(rows=rows, events_per_row=5)
            assert run_population(pop).backend == default_backend(rows)

    def test_batch_rows_name_the_backend_that_ran(self):
        from repro.specs import BatchSpec

        def spec(seed):
            return BatchSpec(protocols=("moesi",), rows=4,
                             events_per_row=25, seed=seed)

        burst = [spec(seed) for seed in range(NUMPY_MIN_ROWS // 4)]
        (solo,), = run_batch_specs([spec(0)])
        merged = run_batch_specs(burst)
        assert solo["backend"] == "python"
        assert {rows[0]["backend"] for rows in merged} == {
            default_backend(NUMPY_MIN_ROWS)
        }
        for backend in available_backends():
            (pinned,), = run_batch_specs([spec(0)], backend=backend)
            assert pinned["backend"] == backend

    def test_unknown_backend_rejected(self):
        pop = make_synthetic_population(rows=2, events_per_row=5)
        with pytest.raises(ValueError, match="unavailable"):
            run_population(pop, backend="fortran")

    def test_backends_identical_on_synthetic_population(self):
        pop = make_synthetic_population(
            rows=24,
            units=("moesi", "dragon", "non-caching"),
            events_per_row=60,
            seed=3,
        )
        results = [
            run_population(pop, backend=backend)
            for backend in available_backends()
        ]
        for result in results[1:]:
            assert result.snapshots == results[0].snapshots
            assert result.transitions == results[0].transitions
            assert result.events == results[0].events

    @pytest.mark.parametrize("backend", available_backends())
    def test_multi_way_population_with_flushes(self, backend):
        """Three-way sets that overflow (14 lines in 6 slots), four
        units and frequent flush/pass traffic: evictions pick LRU
        victims among touched ways, and every snoop finds holders in
        several ways.  The counts are the ones the kernel produced
        before its slot lookup returned flat indices."""
        pop = make_synthetic_population(
            rows=6,
            units=("moesi", "dragon", "berkeley", "write-through"),
            geometry=BatchGeometry(num_sets=2, associativity=3, lines=14),
            events_per_row=250,
            seed=11,
            p_write=0.4,
            p_flush=0.08,
            p_pass=0.08,
        )
        result = run_population(pop, backend=backend)
        assert verify_rows(pop, result) == []
        assert result.transitions == 2996
        assert result.row_transitions == (505, 497, 522, 479, 507, 486)
        assert tuple(
            s["bus_transactions"] for s in result.snapshots
        ) == (217, 203, 211, 204, 211, 201)


#: Deliberately spread in every dimension: sets, ways, line size, and
#: address-space lines all differ between rows, so padded slots, rank
#: sentinels, and per-row strides are all exercised at once.
MIXED_GEOMETRIES = (
    BatchGeometry(num_sets=2, associativity=1, line_size=16, lines=4),
    BatchGeometry(num_sets=4, associativity=2, line_size=32, lines=8),
    BatchGeometry(num_sets=1, associativity=4, line_size=64, lines=6),
    BatchGeometry(num_sets=2, associativity=2, line_size=32, lines=3),
)


class TestHeterogeneousPopulations:
    """Padded mixed-geometry rows: one kernel invocation, per-row
    set/way/linesize, byte-identical to the object engine."""

    def test_envelope_covers_every_dimension(self):
        envelope = envelope_geometry(MIXED_GEOMETRIES)
        assert envelope == BatchGeometry(4, 4, 64, 8)
        for g in MIXED_GEOMETRIES:
            assert envelope.num_sets >= g.num_sets
            assert envelope.associativity >= g.associativity

    def test_geometry_for_falls_back_to_envelope(self):
        pop = make_synthetic_population(rows=2, events_per_row=5)
        assert pop.geometries is None
        assert pop.geometry_for(0) == pop.geometry
        hetero = make_synthetic_population(
            rows=3, events_per_row=5, geometries=MIXED_GEOMETRIES[:2]
        )
        assert hetero.geometry_for(0) == MIXED_GEOMETRIES[0]
        assert hetero.geometry_for(1) == MIXED_GEOMETRIES[1]
        assert hetero.geometry_for(2) == MIXED_GEOMETRIES[0]  # cycles

    def test_row_geometry_exceeding_envelope_rejected(self):
        pop = make_synthetic_population(rows=2, events_per_row=5)
        bad = BatchPopulation(
            units=pop.units,
            geometry=BatchGeometry(2, 1, 32, 4),
            events=[[], []],
            geometries=(
                BatchGeometry(2, 1, 32, 4),
                BatchGeometry(4, 1, 32, 4),  # more sets than the envelope
            ),
        )
        with pytest.raises(ValueError):
            run_population(bad)

    @pytest.mark.parametrize(
        "units",
        [
            ("moesi",),
            ("moesi", "dragon", "non-caching"),
            ("write-once", "firefly"),
        ],
    )
    def test_mixed_geometry_byte_equivalent_on_every_backend(self, units):
        pop = make_synthetic_population(
            rows=20,
            units=units,
            events_per_row=60,
            seed=7,
            p_flush=0.05,
            p_pass=0.05,
            geometries=MIXED_GEOMETRIES,
        )
        assert pop.geometry == envelope_geometry(MIXED_GEOMETRIES)
        results = {
            backend: run_population(pop, backend=backend)
            for backend in available_backends()
        }
        for backend, result in results.items():
            assert verify_rows(pop, result) == [], (
                f"{units} diverged from the object engine on {backend}"
            )
        snapshots = [r.snapshots for r in results.values()]
        for other in snapshots[1:]:
            assert other == snapshots[0]

    def test_scalar_residual_accounting(self):
        pop = make_synthetic_population(
            rows=16, events_per_row=40, seed=1, geometries=MIXED_GEOMETRIES
        )
        for backend in available_backends():
            result = run_population(pop, backend=backend)
            assert result.scalar_events + result.vector_events \
                == result.events
            assert 0.0 <= result.scalar_residual <= 1.0
            if backend == "python":
                # The portable interpreter is all-scalar by definition.
                assert result.scalar_residual == 1.0


def _scenario_populations(seeds: int) -> tuple[list, int]:
    """Fuzz scenarios for seeds ``0 .. seeds - 1`` as kernel populations:
    scenarios whose units all lower, grouped by unit mix into padded
    populations with each scenario's own geometry per row.  Returns the
    populations and the number of scenarios left to the object engine
    (seeded choice specs, injected bugs, stateful selectors)."""
    groups: dict[tuple, list] = {}
    skipped = 0
    for seed in range(seeds):
        scenario = generate_scenario(seed)
        try:
            if any(":" in spec for spec in scenario.units):
                raise NotBatchableError(scenario.units)
            lower_units(scenario.units)
        except NotBatchableError:
            skipped += 1
            continue
        groups.setdefault(scenario.units, []).append(scenario)
    populations = []
    for units, cases in groups.items():
        per_row = tuple(
            BatchGeometry(
                c.geometry.num_sets,
                c.geometry.associativity,
                c.geometry.line_size,
                c.geometry.lines,
            )
            for c in cases
        )
        populations.append(
            BatchPopulation(
                units=units,
                geometry=envelope_geometry(per_row),
                events=[
                    [
                        (e.unit, EVENT_KIND_CODES[e.kind], e.line)
                        for e in c.events
                    ]
                    for c in cases
                ],
                row_ids=tuple(c.seed for c in cases),
                geometries=per_row,
            )
        )
    return populations, skipped


class TestBatchCampaign:
    """Generated fuzz scenarios through the kernel, every row replayed on
    the object engine."""

    def test_fifty_seed_campaign_matches_oracle(self):
        populations, skipped = _scenario_populations(FUZZ_SEEDS)
        batched = sum(pop.rows for pop in populations)
        assert batched + skipped == FUZZ_SEEDS
        assert batched > 0 and skipped > 0
        for pop in populations:
            assert verify_rows(pop, run_population(pop)) == [], pop.units

    def test_campaign_backend_invariant(self):
        populations, _ = _scenario_populations(30)
        for pop in populations:
            snapshots = [
                run_population(pop, backend=backend).snapshots
                for backend in available_backends()
            ]
            assert all(s == snapshots[0] for s in snapshots[1:])

    def test_mixed_geometry_seeds_merge_into_one_population(self):
        # Fuzz scenarios draw varied geometries; grouped by unit mix
        # alone, a mix is one padded population.
        populations, _ = _scenario_populations(60)
        assert len({pop.units for pop in populations}) == len(populations)
        assert any(len(set(pop.geometries)) > 1 for pop in populations)
        for pop in populations:
            assert verify_rows(pop, run_population(pop)) == [], pop.units


class TestSweepEntryPoints:
    def test_batch_protocol_sweep_rows(self):
        from repro.perf.batch import batch_protocol_sweep

        rows = batch_protocol_sweep(
            protocols=("moesi", "berkeley"), rows=6, events_per_row=30,
            workers=0,
        )
        assert [r["protocol"] for r in rows] == ["moesi", "berkeley"]
        for row in rows:
            assert row["crashes"] == 0
            assert row["transitions"] > 0
            assert row["backend"] in available_backends()

    def test_batch_rows_golden_at_any_worker_count(self, monkeypatch):
        """Rows minus the wall-clock column are fixed values, equal at
        one worker and on the pool (the cutover is forced to zero, so the
        two-worker run really fans out: one pool map)."""
        import repro.perf.pool as pool_mod
        from repro.api import execute, plan

        golden = [
            {"protocol": "moesi", "rows": 8, "events": 400,
             "transitions": 527, "crashes": 0},
            {"protocol": "illinois", "rows": 8, "events": 400,
             "transitions": 605, "crashes": 0},
            {"protocol": "dragon", "rows": 8, "events": 400,
             "transitions": 592, "crashes": 0},
        ]
        for row in golden:
            row["backend"] = default_backend(row["rows"])
        spec = plan("batch", protocols=("moesi", "illinois", "dragon"),
                    rows=8, events_per_row=50)
        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(pool_mod, "ADAPTIVE_CUTOVER_S", 0.0)
        for workers, maps in ((1, 0), (2, 1)):
            before = pool_mod.pool_stats()["maps"]
            rows = execute(spec, workers=workers)
            assert pool_mod.pool_stats()["maps"] == before + maps
            assert all(row.pop("transitions_per_sec") >= 0 for row in rows)
            assert rows == golden, workers

    def test_tables_published_only_for_a_fan_out(self, monkeypatch):
        """The shared-memory tables segment serves pool workers only: a
        one-protocol spec or a one-worker sweep never publishes it, a
        multi-protocol sweep on several workers does (and unlinks it),
        and the rows are the same either way."""
        import repro.perf.shared as shared
        from repro.perf.batch import batch_protocol_sweep

        published = []
        unlinked = []
        publish = shared.publish_tables
        unlink = shared.unlink_tables

        def record_publish(specs):
            name = publish(specs)
            published.append(name)
            return name

        def record_unlink(name):
            unlinked.append(name)
            unlink(name)

        monkeypatch.setattr(shared, "publish_tables", record_publish)
        monkeypatch.setattr(shared, "unlink_tables", record_unlink)
        kwargs = dict(rows=4, events_per_row=25, seed=3)
        for protocols, workers in (
            (("moesi",), None), (("moesi",), 2), (("moesi", "dragon"), 1),
        ):
            rows = batch_protocol_sweep(
                protocols=protocols, workers=workers, **kwargs
            )
            assert published == [], (protocols, workers)
        fanned = batch_protocol_sweep(
            protocols=("moesi", "dragon"), workers=2, **kwargs
        )
        assert len(published) == 1 and unlinked == published
        for row in rows + fanned:
            row.pop("transitions_per_sec")
        assert fanned == rows

    def test_api_facade(self):
        from repro.api import execute, plan

        rows = execute(
            plan("batch", protocols=("dragon",), rows=4, events_per_row=20)
        )
        assert rows[0]["protocol"] == "dragon"
        assert rows[0]["crashes"] == 0


class TestKernelShapes:
    """Shape/dtype invariants of the kernel's columns and snapshots."""

    def test_hypothesis_population_shapes(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        specs = st.sampled_from(
            ("moesi", "berkeley", "dragon", "write-through", "non-caching")
        )

        @settings(max_examples=20, deadline=None)
        @given(
            rows=st.integers(min_value=1, max_value=12),
            units=st.lists(specs, min_size=1, max_size=3),
            events_per_row=st.integers(min_value=0, max_value=25),
            seed=st.integers(min_value=0, max_value=2**16),
            num_sets=st.sampled_from((1, 2, 4)),
            associativity=st.sampled_from((1, 2)),
            lines=st.integers(min_value=1, max_value=6),
            p_write=st.floats(min_value=0.0, max_value=1.0),
        )
        def check(rows, units, events_per_row, seed, num_sets,
                  associativity, lines, p_write):
            geometry = BatchGeometry(
                num_sets=num_sets,
                associativity=associativity,
                line_size=32,
                lines=lines,
            )
            pop = make_synthetic_population(
                rows=rows,
                units=tuple(units),
                geometry=geometry,
                events_per_row=events_per_row,
                seed=seed,
                p_write=p_write,
                p_flush=0.05,
                p_pass=0.05,
            )
            results = [
                run_population(pop, backend=backend)
                for backend in available_backends()
            ]
            for result in results:
                assert result.rows == rows
                assert len(result.snapshots) == rows
                for snapshot in result.snapshots:
                    assert len(snapshot["memory"]) == lines
                    assert len(snapshot["last_version"]) == lines
                    assert len(snapshot["caches"]) == len(units)
                    assert all(
                        isinstance(value, int) for value in snapshot["memory"]
                    )
                    crash = snapshot["crash"]
                    assert crash is None or len(crash) == 2
            for result in results[1:]:
                assert result.snapshots == results[0].snapshots

        check()

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy backend absent")
    def test_numpy_columns_are_int64(self):
        import numpy as np

        from repro.perf.batch import _Kernel, lower_units

        pop = make_synthetic_population(rows=3, events_per_row=10)
        kernel = _Kernel(pop, lower_units(pop.units), "numpy")
        geometry = pop.geometry
        cells = (
            pop.rows
            * len(pop.units)
            * geometry.num_sets
            * geometry.associativity
        )
        for name in ("st", "tg", "val", "rk"):
            column = getattr(kernel, name)
            assert column.dtype == np.int64
            assert column.shape == (cells,)
        for name in ("mem", "lastv"):
            column = getattr(kernel, name)
            assert column.dtype == np.int64
            assert column.shape == (pop.rows * geometry.lines,)
