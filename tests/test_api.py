"""The repro.api facade: sessions, typed results, the package front door."""

import json

import pytest

from repro import (
    ExperimentResult,
    FuzzResult,
    Session,
    VerifyResult,
    execute,
    plan,
)
from repro.obs.export import validate_chrome_trace
from repro.workloads import ping_pong


class TestRunExperiment:
    def test_default_synthetic_run(self):
        session = Session()
        result = session.execute(
            plan("experiment", protocol="moesi", references=300)
        )
        assert isinstance(result, ExperimentResult)
        assert result.ok and not result.violations
        assert result.report.accesses == 300
        assert result.metrics["bus.transactions"] > 0
        assert result.trace is None and result.label == "moesi"

    def test_mixed_protocols(self):
        session = Session()
        result = session.execute(plan(
            "experiment",
            protocols=["moesi", "dragon", "write-through"],
            workload=ping_pong(rounds=20, processors=3),
        ))
        assert result.ok
        assert result.label == "moesi+dragon+write-through"
        protocols = {unit: board.protocol.name.lower()
                     for unit, board in result.system.controllers.items()}
        assert len(set(protocols.values())) == 3

    def test_too_few_protocols_raises(self):
        session = Session()
        with pytest.raises(ValueError, match="protocols"):
            session.execute(plan(
                "experiment",
                protocols=["moesi"],
                workload=ping_pong(rounds=5, processors=3),
            ))

    def test_unknown_protocol_raises(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            Session().execute(
                plan("experiment", protocol="nonsense", references=10)
            )

    def test_timed_run_reports_elapsed(self):
        result = Session().execute(
            plan("experiment", protocol="moesi", references=200, timed=True)
        )
        assert result.ok
        assert result.report.elapsed_ns > 0

    def test_module_level_one_shot(self):
        result = execute(
            plan("experiment", protocol="illinois", references=200)
        )
        assert result.ok and result.trace is None


class TestTracedRoundTrip:
    """The acceptance path: experiment -> typed result -> exported trace."""

    def test_trace_export_and_validate(self, tmp_path):
        session = Session(label="rt", trace=True)
        result = session.execute(
            plan("experiment", protocol="illinois", references=300)
        )
        assert result.ok and result.trace
        path = result.write_trace(tmp_path / "out.trace.json")
        payload = json.loads(path.read_text())
        assert validate_chrome_trace(payload) == []
        cats = {r.get("cat") for r in payload["traceEvents"]}
        assert {"bus", "transition"} <= cats

    def test_jsonl_export(self, tmp_path):
        session = Session(trace=True)
        result = session.execute(
            plan("experiment", protocol="moesi", references=100)
        )
        path = result.write_trace(tmp_path / "out.jsonl", fmt="jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == len(result.trace)

    def test_unknown_format_raises(self, tmp_path):
        session = Session(trace=True)
        result = session.execute(
            plan("experiment", protocol="moesi", references=50)
        )
        with pytest.raises(ValueError, match="unknown trace format"):
            result.write_trace(tmp_path / "x", fmt="xml")

    def test_write_trace_without_tracing_raises(self, tmp_path):
        result = Session().execute(
            plan("experiment", protocol="moesi", references=50)
        )
        with pytest.raises(ValueError, match="trace=True"):
            result.write_trace(tmp_path / "x.json")

    def test_session_accumulates_across_runs(self):
        session = Session(trace=True)
        first = session.execute(
            plan("experiment", protocol="moesi", references=100)
        )
        second = session.execute(
            plan("experiment", protocol="dragon", references=100)
        )
        assert len(second.trace) > len(first.trace)

    def test_to_json_round_trips_through_report(self):
        from repro.system.stats import SystemReport

        session = Session(trace=True)
        result = session.execute(
            plan("experiment", protocol="moesi", references=100)
        )
        restored = SystemReport.from_json(result.to_json())
        assert restored.to_json() == result.report.to_json()


class TestVerify:
    def test_quick_matrix(self):
        from repro.verify.mixes import class_member_mixes

        session = Session()
        result = session.execute(plan("verify", suites=("class-members",)))
        assert isinstance(result, VerifyResult)
        assert result.ok and result.failures == []
        assert len(result.rows) == len(class_member_mixes())

    def test_traced_matrix_marks_cases(self):
        from repro.verify.mixes import homogeneous_foreign

        session = Session(trace=True)
        result = session.execute(
            plan("verify", suites=("homogeneous-foreign",))
        )
        marks = [e for e in result.trace if e["kind"] == "mark"
                 and e["name"] == "verify.case"]
        assert len(marks) == len(homogeneous_foreign())
        assert all(m["args"]["ok"] for m in marks)


class TestFuzz:
    def test_clean_campaign(self, tmp_path):
        session = Session()
        result = session.execute(plan("fuzz", seeds=8),
                                 out_dir=tmp_path / "repros")
        assert isinstance(result, FuzzResult)
        assert result.ok and result.failures == []
        assert result.report.seeds_run == 8

    def test_config_and_seeds_conflict(self):
        # The CampaignConfig bundle is gone: campaign knobs are plan()
        # keywords, so passing config= at all is a TypeError.
        from repro.fuzz import CampaignConfig

        with pytest.raises(TypeError, match="unexpected keyword"):
            plan("fuzz", config=CampaignConfig(seeds=3), seeds=3)

    def test_traced_campaign_marks_stages(self, tmp_path):
        session = Session(trace=True)
        result = session.execute(plan("fuzz", seeds=5),
                                 out_dir=tmp_path / "repros")
        names = [e["name"] for e in result.trace if e["kind"] == "mark"]
        assert "fuzz.start" in names and "fuzz.done" in names

    def test_module_level_one_shot(self, tmp_path):
        result = execute(plan("fuzz", seeds=5),
                         out_dir=tmp_path / "repros")
        assert result.ok

    def test_injected_bug_is_caught(self, tmp_path):
        import dataclasses

        from repro.fuzz import ScenarioConfig

        spec = plan(
            "fuzz",
            seeds=30,
            scenario=dataclasses.replace(ScenarioConfig(),
                                         inject="illinois-silent-im"),
        )
        session = Session(trace=True)
        result = session.execute(spec, out_dir=tmp_path / "repros")
        assert not result.ok and result.failures
        failures = [e for e in result.trace
                    if e["kind"] == "mark" and e["name"] == "fuzz.failure"]
        assert len(failures) == len(result.failures)


class TestShootout:
    def test_rows_per_protocol(self):
        session = Session()
        rows = session.execute(plan("shootout", references=300,
                                    protocols=["moesi", "berkeley"]))
        assert [row["system"] for row in rows] == ["moesi", "berkeley"]
        assert all("elapsed_us" in row for row in rows)

    def test_traced_rows_have_per_protocol_streams(self):
        session = Session(trace=True)
        session.execute(plan("shootout", references=200,
                             protocols=["moesi", "dragon"]))
        streams = {e["stream"] for e in session.tracer.export()}
        assert {"moesi", "dragon"} <= streams


class TestSessionProfile:
    def test_experiment_region_recorded(self):
        session = Session(profile=True)
        session.execute(plan("experiment", protocol="moesi", references=100))
        (record,) = [r for r in session.profiler.records
                     if r.name == "experiment"]
        assert record.meta["references"] == 100

    def test_disabled_by_default(self):
        session = Session()
        assert session.profiler is None and session.tracer is None
