"""Seeded fuzz campaigns: fan-out, shrinking, repro files, summaries.

A campaign runs seeds ``seed_base .. seed_base + seeds - 1`` through
:func:`repro.fuzz.runner.run_scenario`, fanning contiguous seed ranges
(shards) out over :func:`repro.perf.pool.parallel_map`.  Each shard
returns one aggregate digest, so a million-seed campaign ships back
kilobytes, not a million dicts.  Because each seed's scenario and
verdict are pure functions of ``(seed, config)``, and shards come back
in range (= seed) order, ``--workers N`` and ``--workers 0`` produce
byte-identical campaign summaries -- the worker and shard counts are
deliberately excluded from the report.

Failing seeds are shrunk in the parent process (in seed order, so the
report is deterministic) and written as replayable repro files named
``repro_seed<N>.json``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from pathlib import Path
from typing import Optional, Union

from repro.fuzz.replay import write_repro
from repro.fuzz.runner import StepFailure, run_scenario
from repro.fuzz.scenario import Scenario, ScenarioConfig, generate_scenario
from repro.fuzz.shrink import shrink_scenario
from repro.perf.pool import parallel_map

__all__ = [
    "CampaignConfig",
    "CampaignFailure",
    "CampaignReport",
    "run_campaign",
    "shard_ranges",
]


@dataclasses.dataclass(frozen=True)
class CampaignConfig:
    """What to fuzz and how hard."""

    seeds: int = 200
    seed_base: int = 0
    scenario: ScenarioConfig = dataclasses.field(
        default_factory=ScenarioConfig
    )
    #: Shrink failing seeds to minimal counterexamples (slow but precise).
    shrink: bool = True


@dataclasses.dataclass
class CampaignFailure:
    """One failing seed: original verdict, minimal counterexample, repro."""

    seed: int
    failure: StepFailure  # as first observed on the generated scenario
    scenario: Scenario  # shrunk (or original, if shrinking is off)
    shrunk_failure: StepFailure  # the failure the minimal scenario produces
    repro_path: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "failure": self.failure.to_dict(),
            "scenario": self.scenario.to_dict(),
            "shrunk_failure": self.shrunk_failure.to_dict(),
            "repro_file": Path(self.repro_path).name if self.repro_path else None,
        }


@dataclasses.dataclass
class CampaignReport:
    """Deterministic campaign outcome (worker count intentionally absent)."""

    config: CampaignConfig
    seeds_run: int
    steps_run: int
    transitions_checked: int
    failures: list[CampaignFailure]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "seeds": self.config.seeds,
            "seed_base": self.config.seed_base,
            "scenario_config": self.config.scenario.to_dict(),
            "seeds_run": self.seeds_run,
            "steps_run": self.steps_run,
            "transitions_checked": self.transitions_checked,
            "failures": [f.to_dict() for f in self.failures],
        }

    def summary_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def summary_text(self) -> str:
        lines = [
            f"fuzz campaign: {self.config.seeds} seeds "
            f"(base {self.config.seed_base})",
            f"  seeds run:           {self.seeds_run}",
            f"  steps executed:      {self.steps_run}",
            f"  transitions checked: {self.transitions_checked}",
            f"  failures:            {len(self.failures)}",
        ]
        for item in self.failures:
            lines.append(f"  seed {item.seed}: {item.failure}")
            lines.append(
                f"    minimal: {len(item.scenario.events)} events / "
                f"{len(item.scenario.units)} units "
                f"[{' '.join(str(e) for e in item.scenario.events)}] "
                f"-> {item.shrunk_failure}"
            )
            if item.repro_path:
                lines.append(f"    repro: {Path(item.repro_path).name}")
        return "\n".join(lines) + "\n"


def _collect_failures(
    config: CampaignConfig,
    failing: list,
    out_dir: Optional[Union[str, Path]] = None,
    profiler=None,
    tracer=None,
) -> list[CampaignFailure]:
    """Shrink ``(seed, failure_dict)`` pairs -- already in seed order --
    into :class:`CampaignFailure` items and write their repro files."""
    failures: list[CampaignFailure] = []
    for seed, failure_dict in failing:
        failure = StepFailure.from_dict(failure_dict)
        scenario = generate_scenario(seed, config.scenario)
        if profiler is not None:
            with profiler.region("fuzz.shrink", seed=seed):
                minimal, final = _shrink_stage(config, scenario)
        else:
            minimal, final = _shrink_stage(config, scenario)
        item = CampaignFailure(
            seed=seed,
            failure=failure,
            scenario=minimal,
            shrunk_failure=final.failure,
        )
        if tracer is not None:
            tracer.mark(
                "fuzz.failure",
                seed=seed,
                oracle=failure.oracle,
                events=len(minimal.events),
            )
        if out_dir is not None:
            path = Path(out_dir) / f"repro_seed{seed}.json"
            write_repro(
                path,
                minimal,
                final.failure,
                note=f"shrunk from fuzz seed {seed} "
                f"({len(scenario.events)} events originally)",
            )
            item.repro_path = str(path)
        failures.append(item)
    return failures


def _shrink_stage(config: CampaignConfig, scenario: Scenario):
    if config.shrink:
        return shrink_scenario(scenario)
    return scenario, run_scenario(scenario)


def shard_ranges(seed_base: int, seeds: int, shards: int) -> list[tuple]:
    """Partition ``seed_base .. seed_base + seeds - 1`` into at most
    ``shards`` contiguous ``(start, count)`` ranges, earlier ranges one
    seed longer when the split is uneven.  Ascending and gap-free, so
    splicing shard results in range order *is* seed order."""
    shards = max(1, min(shards, seeds)) if seeds > 0 else 1
    base, extra = divmod(max(0, seeds), shards)
    ranges = []
    start = seed_base
    for index in range(shards):
        count = base + (1 if index < extra else 0)
        if count > 0:
            ranges.append((start, count))
        start += count
    return ranges


def _run_shard(scenario_config: dict, shard: tuple) -> dict:
    """Pool worker: run one contiguous seed range serially.

    Returns one aggregate digest per *range*, not per seed -- totals
    plus the failing seeds' verdicts.  The scenario config travels bound
    via :func:`functools.partial` (one pickle per chunk), and scenarios
    are not shipped back: the parent regenerates a failing seed's
    scenario when it shrinks it."""
    start, count = shard
    config = ScenarioConfig.from_dict(scenario_config)
    steps_run = 0
    transitions_checked = 0
    failing = []
    for seed in range(start, start + count):
        result = run_scenario(generate_scenario(seed, config))
        steps_run += result.steps_run
        transitions_checked += result.transitions_checked
        if result.failure is not None:
            failing.append((seed, result.failure.to_dict()))
    return {
        "count": count,
        "steps_run": steps_run,
        "transitions_checked": transitions_checked,
        "failing": failing,
    }


def run_campaign(
    config: Optional[CampaignConfig] = None,
    workers: int = 0,
    out_dir: Optional[Union[str, Path]] = None,
    profiler=None,
    tracer=None,
) -> CampaignReport:
    """The campaign driver behind ``execute(plan("fuzz", ...))``.

    The seed range splits into ``4x`` the worker count of contiguous
    shards (load balancing without per-seed dispatch); ``workers=0``
    runs them serially, with the same report.  A
    :class:`repro.obs.profile.Profiler` times the execute/shrink stages;
    a :class:`repro.obs.trace.Tracer` gets stage and per-failure marks.
    """
    config = config or CampaignConfig()
    ranges = shard_ranges(config.seed_base, config.seeds, 4 * max(1, workers))
    task_fn = functools.partial(_run_shard, config.scenario.to_dict())
    if tracer is not None:
        tracer.mark(
            "fuzz.start", seeds=config.seeds, seed_base=config.seed_base
        )
    if profiler is not None:
        with profiler.region("fuzz.execute", seeds=config.seeds):
            digests = parallel_map(task_fn, ranges, workers=workers)
    else:
        digests = parallel_map(task_fn, ranges, workers=workers)

    seeds_run = 0
    steps_run = 0
    transitions_checked = 0
    failing: list[tuple[int, dict]] = []
    for digest in digests:
        seeds_run += digest["count"]
        steps_run += digest["steps_run"]
        transitions_checked += digest["transitions_checked"]
        failing.extend(digest["failing"])
    failures = _collect_failures(
        config, failing, out_dir=out_dir, profiler=profiler, tracer=tracer
    )
    if tracer is not None:
        tracer.mark(
            "fuzz.done",
            seeds_run=seeds_run,
            steps_run=steps_run,
            failures=len(failures),
        )
    return CampaignReport(
        config=config,
        seeds_run=seeds_run,
        steps_run=steps_run,
        transitions_checked=transitions_checked,
        failures=failures,
    )
