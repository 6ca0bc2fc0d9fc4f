"""The observability subsystem: tracer, exporters, metrics, profiler."""

import json

import pytest

from repro import Session, plan
from repro.obs.export import (
    bus_rows,
    format_trace,
    render_waveforms,
    to_chrome_trace,
    to_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import MetricsRegistry, system_metrics
from repro.obs.profile import Profiler
from repro.obs.trace import TraceEvent, Tracer
from repro.workloads import ping_pong


def _traced_run(timed=False, rounds=10):
    session = Session(label="obs-test", trace=True)
    result = session.execute(plan(
        "experiment",
        protocol="moesi",
        workload=ping_pong(rounds=rounds, processors=2),
        timed=timed,
    ))
    return session, result


class TestTracer:
    def test_bus_and_transition_events_captured(self):
        _, result = _traced_run()
        kinds = {event["kind"] for event in result.trace}
        assert "bus" in kinds and "transition" in kinds

    def test_bus_event_carries_signal_values(self):
        _, result = _traced_run()
        bus_events = [e for e in result.trace if e["kind"] == "bus"]
        assert bus_events
        args = bus_events[0]["args"]
        for signal in ("CA", "IM", "BC", "CH", "DI", "SL", "BS"):
            assert signal in args
        assert "column" in args and "duration_ns" in args

    def test_transition_event_names_the_table_cell(self):
        _, result = _traced_run()
        transitions = [e for e in result.trace if e["kind"] == "transition"]
        assert transitions
        args = transitions[0]["args"]
        assert args["side"] in ("local", "snoop")
        assert set(args) >= {"state", "event", "action"}

    def test_snoop_side_recorded(self):
        _, result = _traced_run()
        sides = {e["args"]["side"] for e in result.trace
                 if e["kind"] == "transition"}
        assert sides == {"local", "snoop"}

    def test_des_events_only_on_timed_runs(self):
        _, atomic = _traced_run(timed=False)
        assert not [e for e in atomic.trace if e["kind"] == "des"]
        _, timed = _traced_run(timed=True)
        des = [e for e in timed.trace if e["kind"] == "des"]
        names = {e["name"] for e in des}
        assert names >= {"schedule", "fire", "retire"}

    def test_seq_is_a_total_order(self):
        _, result = _traced_run()
        seqs = [e["seq"] for e in result.trace]
        assert seqs == list(range(len(seqs)))

    def test_deterministic_across_runs(self):
        _, first = _traced_run()
        _, second = _traced_run()
        assert to_jsonl(first.trace) == to_jsonl(second.trace)

    def test_absorb_renumbers_and_keeps_stream(self):
        parent = Tracer(stream="parent")
        parent.mark("before")
        child = Tracer(stream="child")
        child.mark("x", key=1)
        child.mark("y", key=2)
        parent.absorb(child.export())
        seqs = [e.seq for e in parent.events]
        assert seqs == [0, 1, 2]
        assert parent.events[1].stream == "child"
        parent.absorb(child.export(), stream="renamed")
        assert parent.events[-1].stream == "renamed"

    def test_event_dict_round_trip(self):
        tracer = Tracer()
        tracer.mark("waypoint", unit="cpu0", detail=3)
        (event,) = tracer.events
        assert TraceEvent.from_dict(event.to_dict()) == event


class TestExporters:
    def test_jsonl_is_byte_stable(self, tmp_path):
        _, result = _traced_run()
        path = write_jsonl(tmp_path / "t.jsonl", result.trace)
        lines = path.read_text().splitlines()
        assert len(lines) == len(result.trace)
        assert json.loads(lines[0])["seq"] == 0

    def test_chrome_trace_is_valid(self):
        _, result = _traced_run()
        payload = to_chrome_trace(result.trace, label="t")
        assert validate_chrome_trace(payload) == []

    def test_chrome_bus_events_are_duration_slices(self):
        _, result = _traced_run()
        payload = to_chrome_trace(result.trace)
        slices = [r for r in payload["traceEvents"] if r.get("cat") == "bus"]
        assert slices
        assert all(r["ph"] == "X" and "dur" in r for r in slices)

    def test_chrome_streams_become_processes(self):
        _, result = _traced_run()
        payload = to_chrome_trace(result.trace, label="lbl")
        names = [r["args"]["name"] for r in payload["traceEvents"]
                 if r["ph"] == "M"]
        assert "lbl:obs-test" in names

    def test_write_chrome_trace_file(self, tmp_path):
        _, result = _traced_run()
        path = write_chrome_trace(tmp_path / "t.json", result.trace)
        payload = json.loads(path.read_text())
        assert validate_chrome_trace(payload) == []

    def test_validator_flags_problems(self):
        assert validate_chrome_trace([]) == ["top level is not an object"]
        assert validate_chrome_trace({}) == [
            "traceEvents missing or not a list"
        ]
        problems = validate_chrome_trace(
            {"traceEvents": [{"ph": "Z"}, {"ph": "X", "name": "n",
                                          "pid": 1, "tid": 1, "ts": 0.0}]}
        )
        assert any("bad phase" in p for p in problems)
        assert any("without dur" in p for p in problems)

    def test_bus_rows_shape(self):
        _, result = _traced_run()
        rows = bus_rows(result.trace)
        assert rows
        assert set(rows[0]) == {"#", "master", "signals", "col", "op",
                                "line", "responses", "supplier",
                                "connectors", "retries", "ns"}

    def test_format_trace_has_title_and_headers(self):
        _, result = _traced_run()
        text = format_trace(result.trace, "capture")
        assert text.splitlines()[0] == "capture"
        assert "signals" in text.splitlines()[1]

    def test_waveforms_render_signal_lines(self):
        _, result = _traced_run()
        text = render_waveforms(result.trace)
        lines = text.splitlines()
        assert lines[0] == "Consistency-line waveform"
        rendered = {line[:3].strip() for line in lines[2:]}
        assert rendered >= {"CA", "IM", "BC", "CH", "DI", "SL", "BS"}
        assert "#" in text  # something was asserted

    def test_waveforms_empty(self):
        assert "(no bus transactions)" in render_waveforms([])


class TestMetricsRegistry:
    def test_counter_accumulator_histogram(self):
        reg = MetricsRegistry(prefix="t")
        reg.counter("c").inc(3)
        reg.accumulator("a").add(1.5)
        reg.histogram("h").observe(2.0)
        reg.histogram("h").observe(4.0)
        snap = reg.to_dict()
        assert snap["t.c"] == 3
        assert snap["t.a"] == 1.5
        assert snap["t.h"]["count"] == 2 and snap["t.h"]["mean"] == 3.0

    def test_metric_objects_are_cached(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_snapshot_keys_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc()
        assert list(reg.to_dict()) == ["a", "b"]

    def test_load_dict_round_trip(self):
        reg = MetricsRegistry(prefix="p")
        reg.counter("c").inc(7)
        reg.accumulator("a").add(2.25)
        reg.histogram("h").observe(5.0)
        restored = MetricsRegistry(prefix="p")
        restored.load_dict(reg.to_dict())
        assert restored.to_dict() == reg.to_dict()

    def test_merge_adds_in_input_order(self):
        reg = MetricsRegistry()
        reg.merge([{"c": 2, "a": 0.5}, {"c": 3, "a": 1.0,
                                        "h": {"count": 1, "total": 9.0,
                                              "min": 9.0, "max": 9.0}}])
        snap = reg.to_dict()
        assert snap["c"] == 5 and snap["a"] == 1.5
        assert snap["h"]["max"] == 9.0

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.reset()
        assert reg.to_dict() == {"c": 0}


class TestSystemMetrics:
    def test_snapshot_matches_the_stats_layer(self):
        _, result = _traced_run()
        metrics = result.metrics
        report = result.report
        assert metrics["bus.transactions"] == report.bus.transactions
        assert metrics["cache.accesses"] == report.accesses
        assert metrics["cache.invalidations_received"] == (
            report.invalidations
        )

    def test_per_state_hit_breakdown(self):
        session = Session(label="hits")
        result = session.execute(plan(
            "experiment", protocol="moesi",
            workload=ping_pong(rounds=20, processors=2),
        ))
        by_state = {name: value for name, value in result.metrics.items()
                    if name.startswith("cache.hits_in_state.")}
        assert by_state
        assert sum(by_state.values()) == result.metrics["cache.hits"]

    def test_system_metrics_is_a_registry(self):
        session = Session(label="reg")
        result = session.execute(plan(
            "experiment", protocol="dragon",
            workload=ping_pong(rounds=5, processors=2),
        ))
        registry = system_metrics(result.system)
        assert isinstance(registry, MetricsRegistry)
        assert registry.to_dict() == result.metrics


class TestProfiler:
    def test_region_records_and_meta_extension(self):
        profiler = Profiler()
        with profiler.region("stage", size=3) as meta:
            meta["extra"] = True
        (record,) = profiler.records
        assert record.name == "stage"
        assert record.meta == {"size": 3, "extra": True}
        assert record.wall_s >= 0.0

    def test_merge_child_prefix_and_order(self):
        parent = Profiler()
        parent.add("a", 0.1)
        child = Profiler()
        child.add("b", 0.2, n=1)
        parent.merge_child(child.export(), prefix="w0")
        assert [r.name for r in parent.records] == ["a", "w0.b"]

    def test_summary_rows_aggregate(self):
        profiler = Profiler()
        profiler.add("x", 0.1)
        profiler.add("x", 0.3)
        profiler.add("y", 0.2)
        rows = profiler.summary_rows()
        assert rows[0] == {"region": "x", "calls": 2, "wall_s": 0.4}
        assert profiler.total_s("y") == 0.2

    def test_explorer_frontier_region(self):
        from repro.verify.explorer import explore

        profiler = Profiler()
        result = explore(["moesi", "moesi"], profiler=profiler)
        assert result.consistent
        (record,) = [r for r in profiler.records
                     if r.name == "explorer.frontier"]
        assert record.meta["states"] == result.states_explored


class TestSystemReportRoundTrip:
    def test_to_json_from_json(self):
        _, result = _traced_run()
        report = result.report
        restored = type(report).from_json(report.to_json())
        assert restored.to_dict() == report.to_dict()
        assert restored.to_json() == report.to_json()
        assert restored.bus == report.bus
        assert restored.row() == report.row()

    def test_trace_and_metrics_ride_along(self):
        _, result = _traced_run()
        report = result.report
        assert report.metrics and report.trace
        restored = type(report).from_json(report.to_json())
        assert restored.trace == report.trace
        assert restored.metrics == report.metrics

    def test_untraced_report_serializes_none(self):
        session = Session(label="plain")
        result = session.execute(plan(
            "experiment", protocol="moesi",
            workload=ping_pong(rounds=5, processors=2),
        ))
        report = result.report
        assert report.trace is None
        restored = type(report).from_json(report.to_json())
        assert restored.trace is None
        assert restored.metrics == report.metrics


class TestSerialParallelEquivalence:
    """``force_pool`` sends the pooled runs to the pool for real; each
    asserts that a pool map ran."""

    def test_traced_shootout_merge_is_byte_identical(self, force_pool):
        from repro.perf.pool import pool_stats

        spec = plan("shootout", references=300,
                    protocols=["moesi", "dragon", "illinois"])
        serial = Session(label="cmp", trace=True)
        serial.execute(spec, workers=None)
        parallel = Session(label="cmp", trace=True)
        before = pool_stats()["maps"]
        parallel.execute(spec, workers=2)
        assert pool_stats()["maps"] > before
        assert serial.trace_jsonl() == parallel.trace_jsonl()

    def test_traced_verify_marks_are_identical(self, force_pool):
        from repro.perf.pool import pool_stats
        from repro.verify.mixes import class_member_mixes, run_matrix

        serial = Tracer(stream="v")
        run_matrix(class_member_mixes()[:4], workers=0, tracer=serial)
        parallel = Tracer(stream="v")
        before = pool_stats()["maps"]
        run_matrix(class_member_mixes()[:4], workers=2, tracer=parallel)
        assert pool_stats()["maps"] > before
        assert to_jsonl(serial.export()) == to_jsonl(parallel.export())


@pytest.mark.parametrize("protocol", ["moesi", "illinois", "dragon"])
def test_traced_run_stays_coherent(protocol):
    session = Session(label=protocol, trace=True)
    result = session.execute(plan(
        "experiment", protocol=protocol,
        workload=ping_pong(rounds=15, processors=3),
    ))
    assert result.ok
    assert len(result.trace) > 0
