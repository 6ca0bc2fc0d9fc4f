"""Fuzz-seed populations through the batch kernel, object engine as oracle.

The campaign in :mod:`repro.fuzz.campaign` runs every seed on the
per-object engine.  This driver takes the same deterministically
generated scenarios and routes the batchable ones -- plain registry
specs whose protocols lower to integer tables -- through the
struct-of-arrays kernel of :mod:`repro.perf.batch`, grouped by
``(units, geometry)`` so each group runs as one population.  Scenarios
the lowering rejects (seeded ``full-class:``/``moesi-random:`` choice
specs, injected bugs, round-robin selectors) fall back to the ordinary
object-engine runner.

The object engine stays the oracle: per population, the first
``oracle_sample`` rows are replayed on a real :class:`System` and the
snapshots diffed byte-for-byte (:func:`repro.perf.batch.verify_rows`).
A non-empty ``mismatches`` list is a kernel bug, never ignorable.

Populations group by **unit mix only**: mixed-geometry scenarios merge
into one padded heterogeneous population (per-row geometries, envelope
strides), so a campaign makes one kernel invocation per protocol mix
instead of one per ``(mix, geometry)`` cell.  Campaigns also shard:
``shards``/``workers`` partition the seed range into contiguous pool
tasks whose digests merge deterministically -- same report at any shard
count, oracle verdicts included (the global per-group sample is always
a subset of the shards' local samples, so the merge keeps exactly the
rows the single-shard run would have verified).
"""

from __future__ import annotations

import dataclasses
import functools
import json
from typing import Optional

from repro.fuzz.runner import run_scenario
from repro.fuzz.scenario import Scenario, ScenarioConfig, generate_scenario
from repro.perf.batch import (
    EVENT_KIND_CODES,
    BatchGeometry,
    BatchPopulation,
    NotBatchableError,
    default_backend,
    envelope_geometry,
    lower_units,
    run_population,
    verify_rows,
)
from repro.perf.pool import parallel_map

__all__ = ["BatchCampaignReport", "run_batch_campaign"]

_SPEC_BATCHABLE: dict[str, bool] = {}


def _spec_batchable(spec: str) -> bool:
    """Can ``spec`` run on the kernel?  Seeded choice specs carry a
    ``:`` and never can; registry names are probed via the lowering."""
    if ":" in spec:
        return False
    if spec not in _SPEC_BATCHABLE:
        try:
            lower_units((spec,))
        except NotBatchableError:
            _SPEC_BATCHABLE[spec] = False
        else:
            _SPEC_BATCHABLE[spec] = True
    return _SPEC_BATCHABLE[spec]


def _population_key(scenario: Scenario) -> tuple:
    """Unit mix only: geometry became a per-row attribute when the
    kernel grew padded heterogeneous populations."""
    return scenario.units


def _case_geometry(scenario: Scenario) -> BatchGeometry:
    g = scenario.geometry
    return BatchGeometry(
        g.num_sets, g.associativity, g.line_size, g.lines
    )


def _build_population(units: tuple, cases: list) -> BatchPopulation:
    """One padded heterogeneous population from same-mix scenarios."""
    per_row = tuple(_case_geometry(case) for case in cases)
    return BatchPopulation(
        units=units,
        geometry=envelope_geometry(per_row),
        events=[_schedule(case) for case in cases],
        row_ids=tuple(case.seed for case in cases),
        geometries=per_row,
    )


def _schedule(scenario: Scenario) -> list:
    return [
        (event.unit, EVENT_KIND_CODES[event.kind], event.line)
        for event in scenario.events
    ]


@dataclasses.dataclass
class BatchCampaignReport:
    """Deterministic outcome of one batch campaign (timings excluded)."""

    seeds: int
    seed_base: int
    backend: str
    populations: int
    batched_rows: int
    fallback_rows: int
    events: int
    transitions: int
    #: ``(seed, step, failure_type)`` for kernel rows that crashed --
    #: the kernel's analog of the fuzz runner's crash taxonomy.
    crashes: list
    verified_rows: int
    #: ``(seed, key, kernel_value, oracle_value)`` diffs; non-empty means
    #: the kernel diverged from the object engine.
    mismatches: list
    fallback_steps: int
    fallback_failures: int

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def summary_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _run_batch_shard(
    scenario_config: dict,
    backend: str,
    oracle_sample: int,
    tables_shm: Optional[str],
    shard: tuple,
) -> dict:
    """Pool worker: one contiguous seed range through the kernel.

    Returns a picklable digest keyed by unit mix.  Each group carries
    its row seeds (ascending: seeds are scanned in order), the kernel
    totals, and oracle verdicts for the shard's **local** first
    ``oracle_sample`` rows.  The merged report samples the *global*
    first rows per group -- always a prefix of some shards' local rows,
    so every globally sampled verdict is present in exactly one digest
    and the merge discards the rest."""
    start, count = shard
    config = ScenarioConfig.from_dict(scenario_config)
    if tables_shm is not None:
        from repro.perf.shared import attach_tables

        try:
            attach_tables(tables_shm)
        except Exception:
            pass  # segment gone or unsupported: lower directly
    groups: dict[tuple, list] = {}
    fallback: list[Scenario] = []
    for seed in range(start, start + count):
        case = generate_scenario(seed, config)
        if all(_spec_batchable(spec) for spec in case.units):
            groups.setdefault(_population_key(case), []).append(case)
        else:
            fallback.append(case)

    group_digests: dict[tuple, dict] = {}
    for units, cases in groups.items():
        pop = _build_population(units, cases)
        result = run_population(pop, backend=backend)
        crashes = []
        for row, snapshot in enumerate(result.snapshots):
            if snapshot["crash"] is not None:
                step, kind = snapshot["crash"]
                crashes.append((pop.row_ids[row], step, kind))
        sample = list(range(min(oracle_sample, pop.rows)))
        mismatches = [
            (pop.row_ids[row], key, got, expected)
            for row, key, got, expected in verify_rows(
                pop, result, rows=sample
            )
        ]
        group_digests[units] = {
            "row_seeds": list(pop.row_ids),
            "events": result.events,
            "transitions": result.transitions,
            "crashes": crashes,
            "verified_seeds": [pop.row_ids[row] for row in sample],
            "mismatches": mismatches,
        }

    fallback_steps = 0
    fallback_failures = 0
    for case in fallback:
        result = run_scenario(case)
        fallback_steps += result.steps_run
        if result.failure is not None:
            fallback_failures += 1
    return {
        "groups": group_digests,
        "fallback_rows": len(fallback),
        "fallback_steps": fallback_steps,
        "fallback_failures": fallback_failures,
    }


def run_batch_campaign(
    seeds: int = 100,
    seed_base: int = 0,
    scenario: Optional[ScenarioConfig] = None,
    backend: Optional[str] = None,
    oracle_sample: int = 2,
    shards: int = 1,
    workers: int = 0,
) -> BatchCampaignReport:
    """Run fuzz seeds ``seed_base .. seed_base + seeds - 1`` through the
    batch kernel where possible, the object engine otherwise.

    Pure function of its arguments: ``shards`` and ``workers`` change
    only the partitioning and the wall clock, never the report -- the
    serial run *is* the one-shard run through the same merge path, so
    any shard count diffs byte-identical against it."""
    from repro.fuzz.campaign import shard_ranges

    config = scenario or ScenarioConfig()
    chosen = backend or default_backend()
    ranges = shard_ranges(seed_base, seeds, shards)
    tables_shm = None
    if workers > 1:
        from repro.perf.shared import publish_tables

        try:
            tables_shm = publish_tables()
        except Exception:
            tables_shm = None  # no shared memory: workers lower directly
    task_fn = functools.partial(
        _run_batch_shard,
        config.to_dict(),
        chosen,
        oracle_sample,
        tables_shm,
    )
    try:
        digests = parallel_map(task_fn, ranges, workers=workers)
    finally:
        if tables_shm is not None:
            from repro.perf.shared import unlink_tables

            unlink_tables(tables_shm)

    # Deterministic re-splice: digests arrive in range order (= seed
    # order), so per-group row lists concatenate back to exactly the
    # single-shard scan order.
    merged: dict[tuple, dict] = {}
    fallback_rows = 0
    fallback_steps = 0
    fallback_failures = 0
    for digest in digests:
        fallback_rows += digest["fallback_rows"]
        fallback_steps += digest["fallback_steps"]
        fallback_failures += digest["fallback_failures"]
        for units, group in digest["groups"].items():
            into = merged.setdefault(
                units,
                {
                    "row_seeds": [],
                    "events": 0,
                    "transitions": 0,
                    "crashes": [],
                    "verified": set(),
                    "by_seed": {},
                },
            )
            into["row_seeds"].extend(group["row_seeds"])
            into["events"] += group["events"]
            into["transitions"] += group["transitions"]
            into["crashes"].extend(group["crashes"])
            into["verified"].update(group["verified_seeds"])
            for item in group["mismatches"]:
                into["by_seed"].setdefault(item[0], []).append(item)

    batched_rows = 0
    events = 0
    transitions = 0
    crashes: list = []
    verified_rows = 0
    mismatches: list = []
    for units in sorted(merged):
        group = merged[units]
        batched_rows += len(group["row_seeds"])
        events += group["events"]
        transitions += group["transitions"]
        crashes.extend(group["crashes"])
        sample_seeds = group["row_seeds"][:oracle_sample]
        verified_rows += len(sample_seeds)
        for seed in sample_seeds:
            if seed not in group["verified"]:  # pragma: no cover
                raise AssertionError(
                    f"shard merge lost oracle coverage for seed {seed}"
                )
            mismatches.extend(group["by_seed"].get(seed, []))

    crashes.sort()
    return BatchCampaignReport(
        seeds=seeds,
        seed_base=seed_base,
        backend=chosen,
        populations=len(merged),
        batched_rows=batched_rows,
        fallback_rows=fallback_rows,
        events=events,
        transitions=transitions,
        crashes=crashes,
        verified_rows=verified_rows,
        mismatches=mismatches,
        fallback_steps=fallback_steps,
        fallback_failures=fallback_failures,
    )
