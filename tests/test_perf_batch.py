"""The struct-of-arrays batch kernel vs the object engine.

The contract under test is absolute: for every population the kernel
accepts, its per-row snapshots are byte-identical to replaying the same
schedule on a real :class:`repro.system.system.System`, on the numpy
backend and the pure-Python ``array`` backend alike.  The sweep below
drives that across every registered protocol on 50 fuzz-seed-derived
schedules; hypothesis then fuzzes the population shape itself.
"""

import pytest

from repro.fuzz.batchrun import run_batch_campaign
from repro.fuzz.scenario import generate_scenario
from repro.perf.batch import (
    EVENT_KIND_CODES,
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


class TestShardedBatchCampaign:
    """Seed-range sharding must never leak into the report."""

    @pytest.mark.parametrize("shards", [2, 8])
    def test_shard_count_invariant(self, shards):
        base = run_batch_campaign(seeds=40, oracle_sample=1, shards=1)
        got = run_batch_campaign(seeds=40, oracle_sample=1, shards=shards)
        assert got.summary_json() == base.summary_json()

    def test_pooled_shards_match_serial(self):
        base = run_batch_campaign(seeds=24, oracle_sample=1, shards=1)
        got = run_batch_campaign(
            seeds=24, oracle_sample=1, shards=4, workers=2
        )
        assert got.summary_json() == base.summary_json()

    def test_mixed_geometry_seeds_merge_into_one_population(self):
        # Fuzz scenarios draw varied geometries; with units-only grouping
        # a mix must appear at most once per campaign.
        report = run_batch_campaign(seeds=60, oracle_sample=1)
        assert report.populations <= report.batched_rows
        assert report.ok


class TestBatchCampaign:
    def test_fifty_seed_campaign_matches_oracle(self):
        report = run_batch_campaign(seeds=FUZZ_SEEDS, oracle_sample=1)
        assert report.ok
        assert report.mismatches == []
        assert report.batched_rows + report.fallback_rows == FUZZ_SEEDS
        assert report.batched_rows > 0 and report.fallback_rows > 0
        assert report.fallback_failures == 0

    def test_campaign_backend_invariant(self):
        reports = [
            run_batch_campaign(seeds=30, oracle_sample=1, backend=backend)
            for backend in available_backends()
        ]
        dicts = [r.to_dict() for r in reports]
        for d in dicts:
            d.pop("backend")
        assert all(d == dicts[0] for d in dicts[1:])


class TestSweepEntryPoints:
    def test_batch_protocol_sweep_rows(self):
        from repro.perf.sweeps import batch_protocol_sweep

        rows = batch_protocol_sweep(
            protocols=("moesi", "berkeley"), rows=6, events_per_row=30,
            workers=0,
        )
        assert [r["protocol"] for r in rows] == ["moesi", "berkeley"]
        for row in rows:
            assert row["crashes"] == 0
            assert row["transitions"] > 0
            assert row["backend"] in available_backends()

    def test_batch_matrix_verifies(self):
        from repro.perf.matrix import run_batch_matrix

        rows = run_batch_matrix(
            specs=("moesi", "non-caching"), rows=4, events_per_row=25,
            workers=0,
        )
        assert all(row["ok"] for row in rows)
        assert all(row["verified_rows"] == 2 for row in rows)

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
