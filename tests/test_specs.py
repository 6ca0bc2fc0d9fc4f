"""The plan/execute split: canonical spec strings, content hashes, and
byte-identity between ``execute(plan(...))`` and the engines it drives.

The properties under test are the ones the serve tier's memoization
correctness rests on: equal specs hash identically in every process,
different work hashes differently, and executing a spec produces
byte-for-byte the result of driving the engine directly (so a cached
payload is indistinguishable from a recomputed one).
"""

import dataclasses
import json
import pickle
import subprocess
import sys

import pytest

from repro.api import Session, execute, plan
from repro.specs import (
    SPEC_VERSION,
    BatchSpec,
    ExperimentSpec,
    FuzzSpec,
    GeometrySpec,
    ShootoutSpec,
    VerifySpec,
    WorkloadSpec,
    spec_from_canonical,
    spec_from_dict,
)

SMALL = dict(references=200, seed=3)


def all_spec_examples():
    return [
        plan("experiment", protocol="dragon", **SMALL, timed=True),
        plan("experiment", protocols=("moesi", "berkeley"), processors=2,
             **SMALL, discipline="round-robin"),
        plan("verify", suites=("class-members",)),
        plan("fuzz", seeds=3, trace=True),
        plan("shootout", references=300),
        plan("shootout", workload=WorkloadSpec(references=30).build(),
             protocols=("moesi",)),
        plan("batch", rows=8, events_per_row=20),
    ]


# ----------------------------------------------------------------------
# Canonicalization and hashing.
# ----------------------------------------------------------------------
class TestCanonical:
    def test_round_trip_every_kind(self):
        for spec in all_spec_examples():
            rebuilt = spec_from_canonical(spec.canonical())
            assert rebuilt == spec
            assert rebuilt.canonical() == spec.canonical()
            assert rebuilt.content_hash() == spec.content_hash()

    def test_dict_round_trip(self):
        for spec in all_spec_examples():
            assert spec_from_dict(spec.to_dict()) == spec

    def test_canonical_carries_version_and_kind(self):
        for spec in all_spec_examples():
            data = json.loads(spec.canonical())
            assert data["v"] == SPEC_VERSION
            assert data["kind"] == spec.kind

    def test_pickle_round_trip(self):
        for spec in all_spec_examples():
            clone = pickle.loads(pickle.dumps(spec))
            assert clone == spec
            assert clone.content_hash() == spec.content_hash()

    def test_specs_are_hashable_dict_keys(self):
        table = {spec: i for i, spec in enumerate(all_spec_examples())}
        assert len(table) == len(all_spec_examples())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown spec kind"):
            spec_from_dict({"kind": "nonesuch"})
        with pytest.raises(ValueError, match="must be a dict"):
            spec_from_dict([1, 2, 3])

    def test_hash_stable_across_processes(self):
        spec = plan("experiment", protocol="moesi", **SMALL, timed=True)
        program = (
            "from repro.api import plan;"
            "print(plan('experiment', protocol='moesi', references=200,"
            " seed=3, timed=True).content_hash())"
        )
        child = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": "99"},
        )
        assert child.stdout.strip() == spec.content_hash()

    def test_hash_differs_by_seed_geometry_discipline(self):
        base = plan("experiment", protocol="moesi", **SMALL)
        variants = [
            plan("experiment", protocol="moesi", references=200, seed=4),
            plan("experiment", protocol="moesi", **SMALL,
                 geometry=GeometrySpec(num_sets=16)),
            plan("experiment", protocol="moesi", **SMALL,
                 discipline="priority"),
            plan("experiment", protocol="berkeley", **SMALL),
            plan("experiment", protocol="moesi", **SMALL, timed=True),
        ]
        hashes = {base.content_hash()}
        for variant in variants:
            assert variant.content_hash() not in hashes
            hashes.add(variant.content_hash())

    def test_execution_details_stay_out_of_the_hash(self):
        # workers/backend/out_dir ride on execute(); nothing in any spec
        # mentions them, so one hash covers every way of computing it.
        spec = plan("verify", suites=("class-members",))
        assert "workers" not in spec.canonical()
        assert "backend" not in spec.canonical()


# ----------------------------------------------------------------------
# The workload spec.
# ----------------------------------------------------------------------
class TestWorkloadSpec:
    def test_synthetic_build_is_deterministic(self):
        spec = WorkloadSpec(references=50, seed=9)
        first = [(r.unit, r.op.value, r.address) for r in spec.build()]
        second = [(r.unit, r.op.value, r.address) for r in spec.build()]
        assert first == second

    def test_literal_embeds_and_rebuilds_exactly(self):
        trace = WorkloadSpec(references=40, seed=5).build()
        lit = WorkloadSpec.literal(trace)
        rebuilt = lit.build()
        assert (
            [(r.unit, r.op.value, r.address) for r in rebuilt]
            == [(r.unit, r.op.value, r.address) for r in trace]
        )
        # ... and the canonical string survives the round trip.
        assert WorkloadSpec.from_dict(json.loads(lit.canonical())) == lit

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError, match="unknown workload source"):
            WorkloadSpec(source="oracle")

    def test_literal_shares_the_trace_records(self):
        trace = WorkloadSpec(references=40, seed=5).build()
        lit = WorkloadSpec.literal(trace)
        assert all(a is b for a, b in zip(lit.records, trace))
        rebuilt = lit.build()
        assert rebuilt.records == trace.records
        rebuilt.append(trace[0])
        assert len(lit.build()) == len(trace)  # build() copies the list

    @pytest.mark.parametrize("record", [
        ["cpu0", "R", -16],
        ["cpu0", "X", 16],
        ["cpu0", "w", 16],
        ["cpu0", "R"],
        ["cpu0", "R", 16, 0],
        ["cpu0", "R", "16"],
        ["cpu0", "R", 1.5],
        ["cpu0", "R", True],
        "cpu",
    ])
    def test_bad_literal_record_rejected_at_parse(self, record):
        payload = plan(
            "experiment", workload=WorkloadSpec(references=3).build()
        ).to_dict()
        payload["workload"]["records"].append(record)
        with pytest.raises(ValueError, match="literal record"):
            spec_from_dict(payload)


# ----------------------------------------------------------------------
# Golden values computed before the plan/execute cut: literal workloads
# now carry ReferenceRecords, but the canonical bytes must not move.
# ----------------------------------------------------------------------
GOLDEN_LITERAL_CANONICAL = (
    '{"check":true,"discipline":null,"geometry":{"associativity":2,'
    '"kind":"geometry","line_size":32,"num_sets":64,"replacement":"lru",'
    '"v":1},"kind":"experiment","label":null,"metrics":true,'
    '"protocol":"illinois","protocols":null,"timed":false,"trace":false,'
    '"v":1,"workload":{"kind":"workload","records":[["cpu0","W",0],'
    '["cpu0","R",0],["cpu1","W",0],["cpu1","R",0]],"source":"literal",'
    '"v":1}}'
)
GOLDEN_SYNTHETIC_CANONICAL = (
    '{"check":true,"discipline":null,"geometry":{"associativity":2,'
    '"kind":"geometry","line_size":32,"num_sets":64,"replacement":"lru",'
    '"v":1},"kind":"experiment","label":null,"metrics":true,'
    '"protocol":"moesi","protocols":null,"timed":true,"trace":false,'
    '"v":1,"workload":{"kind":"workload","p_shared":0.3,"p_write":0.3,'
    '"processors":4,"references":200,"seed":3,"source":"synthetic",'
    '"v":1}}'
)


class TestGolden:
    def test_small_literal_spec(self):
        from repro.workloads import ping_pong

        spec = plan("experiment", protocol="illinois",
                    workload=ping_pong(rounds=2, processors=2))
        assert spec.canonical() == GOLDEN_LITERAL_CANONICAL
        assert spec.content_hash() == (
            "ed2489ad80ab176eb74436bc73d924ae"
            "9869742e2ccddc055198d6d4805ef1a4"
        )

    def test_large_literal_spec(self):
        trace = WorkloadSpec(references=3000, seed=11).build()
        spec = plan("experiment",
                    protocols=("moesi", "dragon", "berkeley",
                               "write-through"),
                    workload=trace, check=False)
        assert spec.content_hash() == (
            "ba54c47c9ef9a80653556a46c268366a"
            "bc2993559346050b2d809f1052c28e91"
        )

    def test_literal_shootout_spec(self):
        from repro.workloads import ping_pong

        spec = plan("shootout", protocols=("moesi", "dragon"),
                    workload=ping_pong(rounds=2, processors=2))
        assert spec.content_hash() == (
            "15da2592fb24b77d1b8bce6444cbc540"
            "9c2532abdebe066f2249e3ce799c4375"
        )

    def test_synthetic_spec(self):
        spec = plan("experiment", protocol="moesi", **SMALL, timed=True)
        assert spec.canonical() == GOLDEN_SYNTHETIC_CANONICAL
        assert spec.content_hash() == (
            "021ffd54fd8714d9cecbf126f52af840"
            "e3d0e2eca6dc38cc7b95362f6470dd26"
        )


# ----------------------------------------------------------------------
# Byte-identity: execute(plan(...)) vs driving the engines directly.
# ----------------------------------------------------------------------
def _direct_system(protocols, trace, label):
    from repro.system.system import BoardSpec, System

    return System(
        [BoardSpec(unit, name)
         for unit, name in zip(trace.units(), protocols)],
        label=label,
    )


class TestByteIdentity:
    def test_experiment_report_identical(self):
        from repro.system.runner import timed_run_from_trace

        spec = plan("experiment", protocol="moesi", **SMALL, timed=True)
        planned = execute(spec)
        trace = WorkloadSpec(references=200, seed=3).build()
        system = _direct_system(["moesi"] * 4, trace, "moesi")
        report = timed_run_from_trace(system, trace).run()
        assert planned.report.to_json() == report.to_json()
        assert planned.metrics == report.metrics

    def test_traced_experiment_identical(self):
        spec = plan(
            "experiment", protocols=("moesi", "dragon"), processors=2,
            **SMALL, trace=True,
        )
        planned = execute(spec)
        session = Session(trace=True)
        in_session = session.execute(
            dataclasses.replace(spec, trace=False)
        )
        assert planned.report.to_json() == in_session.report.to_json()
        assert (
            json.dumps(planned.trace, sort_keys=True, default=str)
            == json.dumps(in_session.trace, sort_keys=True, default=str)
        )

    def test_explicit_workload_identical(self):
        trace = WorkloadSpec(references=120, seed=11).build()
        planned = execute(plan("experiment", protocol="illinois",
                               workload=trace))
        system = _direct_system(["illinois"] * 4, trace, "illinois")
        system.run_trace(trace)
        assert planned.report.to_json() == system.report().to_json()

    def test_verify_rows_identical(self):
        from repro.verify.mixes import class_member_mixes, run_matrix

        planned = execute(plan("verify", suites=("class-members",)))
        assert planned.rows == run_matrix(class_member_mixes())

    def test_cli_verify_quick_rows_identical(self, capsys):
        from repro.cli import main

        assert main(["verify", "--quick", "--json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        planned = execute(plan(
            "verify", suites=("class-members", "homogeneous-foreign")
        ))
        assert envelope["data"]["rows"] == json.loads(
            json.dumps(planned.rows, default=str)
        )

    def test_shootout_rows_identical(self):
        from repro.analysis.compare import protocol_comparison

        spec = plan("shootout", references=300)
        assert execute(spec) == protocol_comparison(references=300)

    def test_fuzz_report_identical(self):
        from repro.fuzz.campaign import CampaignConfig, run_campaign

        planned = execute(plan("fuzz", seeds=2))
        direct = run_campaign(CampaignConfig(seeds=2))
        assert planned.report.to_dict() == direct.to_dict()

    def test_execute_accepts_dict_and_canonical_string(self):
        spec = plan("experiment", protocol="moesi", **SMALL)
        via_obj = execute(spec).report.to_json()
        assert execute(spec.to_dict()).report.to_json() == via_obj
        assert execute(spec.canonical()).report.to_json() == via_obj

    def test_execute_rejects_non_specs(self):
        with pytest.raises(TypeError, match="cannot execute"):
            Session().execute(42)


# ----------------------------------------------------------------------
# The pre-spec keyword spellings are gone, not silently accepted.
# ----------------------------------------------------------------------
class TestLegacyKeywords:
    def test_unknown_board_kwarg_raises(self):
        # Loose board geometry is a plain TypeError:
        # geometry=GeometrySpec(...) is the only spelling.
        for kwargs in ({"lines": 4}, {"num_sets": 8}, {"associativity": 1}):
            with pytest.raises(TypeError, match="unexpected keyword"):
                plan("experiment", **kwargs)

    def test_planned_spec_matches_loose_kwargs(self):
        # plan()'s flat keywords assemble exactly the nested spec.
        planned = plan("experiment", protocol="moesi", references=150,
                       seed=2, geometry=GeometrySpec(num_sets=8))
        assembled = ExperimentSpec(
            protocol="moesi",
            workload=WorkloadSpec(references=150, seed=2),
            geometry=GeometrySpec(num_sets=8),
        )
        assert planned == assembled
        assert planned.content_hash() == assembled.content_hash()


# ----------------------------------------------------------------------
# Scenario <-> FuzzSpec round trip.
# ----------------------------------------------------------------------
class TestScenarioBridge:
    def test_scenario_round_trips_through_fuzz_spec(self):
        from repro.fuzz.runner import (
            fuzz_spec_for_scenario,
            scenario_from_fuzz_spec,
        )
        from repro.fuzz.scenario import generate_scenario

        scenario = generate_scenario(6)
        spec = fuzz_spec_for_scenario(scenario)
        assert isinstance(spec, FuzzSpec)
        rebuilt = scenario_from_fuzz_spec(spec)
        assert rebuilt.canonical() == scenario.canonical()
        assert rebuilt.content_hash() == scenario.content_hash()

    def test_replay_spec_executes(self):
        from repro.fuzz.runner import fuzz_spec_for_scenario
        from repro.fuzz.scenario import generate_scenario

        scenario = generate_scenario(6)
        result = execute(fuzz_spec_for_scenario(scenario))
        assert result.ok
        assert result.report.seeds_run == 1
        assert result.report.steps_run > 0

    def test_campaign_spec_requires_no_scenario_json(self):
        from repro.fuzz.runner import scenario_from_fuzz_spec

        with pytest.raises(ValueError, match="scenario_json"):
            scenario_from_fuzz_spec(FuzzSpec(seeds=2))

    def test_default_scenario_hashes_like_explicit_default(self):
        from repro.fuzz.scenario import ScenarioConfig

        assert (
            FuzzSpec(seeds=5).content_hash()
            == FuzzSpec(seeds=5, scenario=ScenarioConfig()).content_hash()
        )
