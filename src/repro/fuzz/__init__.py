"""Differential fuzzing & conformance testing (the `repro.fuzz` subsystem).

The paper's central claim (section 3.3, Tables 1-2) is *universal*: any
mix of components picking any permitted action at any instant preserves
consistency.  The exhaustive explorer proves it for small fixed mixes;
this package attacks the same claim from the other side, with randomized
differential testing:

* :mod:`repro.fuzz.scenario` -- seeded generation of multi-cache
  scenarios: protocol mixes from the registry, random line geometry, and
  adversarial event schedules with dynamic per-access action choice;
* :mod:`repro.fuzz.oracles` -- the two independent oracles every scenario
  runs against: step-wise MOESI invariants, and a differential oracle
  cross-checking each observed (state, event, action) transition against
  the explorer's canonical tables;
* :mod:`repro.fuzz.runner` -- deterministic scenario execution;
* :mod:`repro.fuzz.shrink` -- delta-debugging of failing scenarios down
  to minimal counterexamples (events first, then caches);
* :mod:`repro.fuzz.campaign` -- parallel seed campaigns over
  :func:`repro.perf.pool.parallel_map`, byte-reproducible at any worker
  count;
* :mod:`repro.fuzz.replay` -- ``.json`` repro files and their verbatim
  re-execution (``repro fuzz --replay``).
"""

from repro.fuzz.campaign import CampaignConfig, CampaignReport, run_campaign
from repro.fuzz.replay import load_repro, replay_file, write_repro
from repro.fuzz.runner import (
    ArbitratedScenarioResult,
    ScenarioResult,
    StepFailure,
    run_scenario,
    run_scenario_arbitrated,
)
from repro.fuzz.scenario import (
    INJECTABLE_BUGS,
    FuzzEvent,
    Geometry,
    Scenario,
    ScenarioConfig,
    generate_scenario,
    resolve_spec,
)
from repro.fuzz.shrink import shrink_scenario

__all__ = [
    "CampaignConfig",
    "CampaignReport",
    "run_campaign",
    "load_repro",
    "replay_file",
    "write_repro",
    "ArbitratedScenarioResult",
    "ScenarioResult",
    "StepFailure",
    "run_scenario",
    "run_scenario_arbitrated",
    "INJECTABLE_BUGS",
    "FuzzEvent",
    "Geometry",
    "Scenario",
    "ScenarioConfig",
    "generate_scenario",
    "resolve_spec",
    "shrink_scenario",
]
