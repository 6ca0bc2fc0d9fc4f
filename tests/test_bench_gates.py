"""Unit tests for the bench regression gates (synthetic reports).

The bench smoke job exercises :func:`repro.perf.bench.regression_report`
end-to-end against the committed baseline; these tests pin the gate
*logic* -- every gate of :data:`repro.perf.bench.SECTIONS` at the edge
of its budget, and the serve memo-hit budget's lower-is-better host
normalization -- on hand-built report dicts, so a gate bug fails fast
instead of surfacing as a flaky CI verdict.
"""

import copy

import pytest

from repro.perf.bench import (
    COMPILED_MIXES,
    EXPLORER_MIXES,
    MAX_DISABLED_OVERHEAD_PCT,
    MAX_SERVE_HIT_S,
    MAX_TRACED_OVERHEAD_PCT,
    MIN_SERVE_BATCH_SPEEDUP,
    MIN_TPS_RATIO,
    SECTIONS,
    regression_report,
)

_BUDGET_NS = round(MAX_SERVE_HIT_S * 1e9)


def _report(cal=1_000_000.0, hit_ns=1000, batch_tps=1_000_000.0,
            hit_ns_p99=None, disabled_pct=1.0):
    return {
        "calibration_ops_per_sec": cal,
        "explorer": [
            {"mix": "full-class+full-class", "transitions_per_sec": 25000.0}
        ],
        "matrix": {"speedup": 1.0},
        "des": {"speedup": 1.0},
        "obs": {
            "overhead_traced_pct": 10.0,
            "overhead_disabled_pct": disabled_pct,
        },
        "batch": {
            "rows": 1024,
            "verified_ok": True,
            "backends": {
                "numpy": {"transitions_per_sec": batch_tps},
            },
        },
        "serve": {
            "hit_s": 1e-06,
            "hit_ns_p50": hit_ns,
            "hit_ns_p99": hit_ns if hit_ns_p99 is None else hit_ns_p99,
            "miss_s": 0.03,
        },
    }


BASELINE = _report()


def _row(report, section, metric):
    """The gate row for ``section``/``metric``, or None when absent."""
    return next(
        (row for row in report["gates"]
         if (row["section"], row["metric"]) == (section, metric)),
        None,
    )


class TestServeGate:
    def test_healthy_hit_passes(self):
        report = regression_report(_report(hit_ns=2000), BASELINE)
        assert report["ok"], report["failures"]
        assert _row(report, "serve", "hit_ns_p50")["current"] == 2000
        assert _row(report, "serve", "hit_ns_p99")["current"] == 2000
        assert report["budgets"]["max_serve_hit_s"] == MAX_SERVE_HIT_S

    def test_hit_over_budget_fails(self):
        report = regression_report(
            _report(hit_ns=_BUDGET_NS * 10), BASELINE
        )
        assert not report["ok"]
        assert any("serve" in f for f in report["failures"])

    def test_tail_over_budget_fails(self):
        # A typical hit within budget does not hide a slow tail.
        report = regression_report(
            _report(hit_ns=1000, hit_ns_p99=_BUDGET_NS * 10), BASELINE
        )
        assert not report["ok"]
        assert any("p99" in f for f in report["failures"])

    def test_gate_reads_percentiles_not_rounded_min(self):
        # ``hit_s`` is the rounded best case; the gate ignores it.
        current = _report(hit_ns=_BUDGET_NS * 10)
        current["serve"]["hit_s"] = 1e-06
        assert not regression_report(current, BASELINE)["ok"]

    def test_slow_host_discount_applies(self):
        # Host at half speed: a raw hit 1.6x over budget normalizes to
        # 0.8x of it -- the gate must credit the host, not the code.
        slow = _report(cal=500_000.0, hit_ns=round(_BUDGET_NS * 1.6))
        report = regression_report(slow, BASELINE)
        assert report["ok"], report["failures"]
        row = _row(report, "serve", "hit_ns_p50")
        assert row["value"] < row["current"]

    def test_genuine_regression_survives_discount(self):
        # Over budget even after the 2x host credit: must still fail.
        slow = _report(cal=500_000.0, hit_ns=_BUDGET_NS * 4)
        report = regression_report(slow, BASELINE)
        assert not report["ok"]

    def test_hit_response_is_reported_not_gated(self):
        current = _report()
        current["serve"]["hit_response_us_p50"] = 3.0
        # Far over the memo-hit budget, yet report-only.
        current["serve"]["hit_response_us_p99"] = MAX_SERVE_HIT_S * 1e7
        report = regression_report(current, BASELINE)
        assert report["ok"], report["failures"]
        p50 = _row(report, "serve", "hit_response_us_p50")
        p99 = _row(report, "serve", "hit_response_us_p99")
        assert p50["current"] == 3.0 and p50["ok"] is None
        assert p99["current"] == MAX_SERVE_HIT_S * 1e7 and p99["ok"] is None
        assert p50["baseline"] is None

    def test_committed_baseline_without_hit_response_accepted(self):
        from pathlib import Path

        from repro.perf.bench import BENCH_FILENAME, load_baseline

        root = Path(__file__).resolve().parent.parent
        baseline = load_baseline(str(root / BENCH_FILENAME))
        # A baseline from before the fields existed, whatever the
        # committed file holds now.
        serve = dict(baseline["serve"])
        serve.pop("hit_response_us_p50", None)
        serve.pop("hit_response_us_p99", None)
        baseline = dict(baseline, serve=serve)
        current = _report()
        current["serve"]["hit_response_us_p50"] = 3.0
        current["serve"]["hit_response_us_p99"] = 4.0
        report = regression_report(current, baseline)
        assert _row(report, "serve", "hit_response_us_p50")["baseline"] is None
        assert _row(report, "serve", "hit_response_us_p99")["current"] == 4.0
        # A report from before the field existed has no row for it.
        older = regression_report(_report(), baseline)
        assert _row(older, "serve", "hit_response_us_p50") is None

    def test_report_without_serve_section_skips_gate(self):
        current = _report()
        del current["serve"]
        report = regression_report(current, BASELINE)
        assert report["ok"], report["failures"]
        assert not [row for row in report["gates"] if row["section"] == "serve"]


class TestObsGate:
    def test_disabled_over_budget_fails(self):
        report = regression_report(
            _report(disabled_pct=MAX_DISABLED_OVERHEAD_PCT + 0.5), BASELINE
        )
        assert not report["ok"]
        assert any("disabled" in f for f in report["failures"])
        assert _row(report, "obs", "overhead_disabled_pct")["current"] == (
            MAX_DISABLED_OVERHEAD_PCT + 0.5
        )

    def test_traced_over_budget_fails(self):
        current = _report()
        current["obs"]["overhead_traced_pct"] = MAX_TRACED_OVERHEAD_PCT + 1
        report = regression_report(current, BASELINE)
        assert not report["ok"]
        assert any("traced" in f for f in report["failures"])

    def test_within_budgets_passes(self):
        report = regression_report(_report(disabled_pct=4.9), BASELINE)
        assert report["ok"], report["failures"]
        assert report["budgets"]["max_disabled_overhead_pct"] == (
            MAX_DISABLED_OVERHEAD_PCT
        )


class TestBatchGate:
    def test_batch_regression_fails(self):
        report = regression_report(_report(batch_tps=100_000.0), BASELINE)
        assert not report["ok"]
        assert any("batch" in f for f in report["failures"])

    def test_batch_ratio_reported(self):
        report = regression_report(_report(batch_tps=1_500_000.0), BASELINE)
        row = _row(report, "batch", "transitions_per_sec vs baseline")
        assert row["value"] == 1.5
        assert report["ok"], report["failures"]

    def test_quick_rows_mismatch_reports_but_does_not_gate(self):
        current = _report(batch_tps=100_000.0)
        current["batch"]["rows"] = 256  # quick-mode population
        report = regression_report(current, BASELINE)
        row = _row(report, "batch", "transitions_per_sec vs baseline")
        assert row["ok"] is None
        assert not [f for f in report["failures"] if row["metric"] in f]
        assert row["value"] is not None

    def test_mismatch_verdict_fails(self):
        current = copy.deepcopy(_report())
        current["batch"]["verified_ok"] = False
        report = regression_report(current, BASELINE)
        assert not report["ok"]


class TestExplorerGate:
    def test_budget_constant_matches_gate(self):
        current = _report()
        current["explorer"][0]["transitions_per_sec"] = (
            25000.0 * (MIN_TPS_RATIO - 0.05)
        )
        report = regression_report(current, BASELINE)
        assert not report["ok"]


class TestServeHitSection:
    def test_hit_percentiles_are_unrounded_ns(self):
        from repro.perf.bench import SERVE_HIT_LOOKUPS, _bench_serve

        serve = _bench_serve(quick=True)
        assert serve["hit_lookups"] == SERVE_HIT_LOOKUPS >= 1000
        p50, p99 = serve["hit_ns_p50"], serve["hit_ns_p99"]
        assert isinstance(p50, int) and isinstance(p99, int)
        assert 0 < p50 <= p99
        response_p50 = serve["hit_response_us_p50"]
        assert 0 < response_p50 <= serve["hit_response_us_p99"]
        # miss_s is reported rounded; the speedup uses the exact miss.
        assert serve["hit_speedup"] == pytest.approx(
            serve["miss_s"] / (p50 * 1e-9), rel=0.02
        )


class TestExperimentSection:
    def test_miss_percentiles_with_host(self):
        from repro.perf.bench import (
            EXPERIMENT_PROTOCOLS,
            EXPERIMENT_REFERENCES,
            _bench_experiment,
        )

        row = _bench_experiment(quick=True)
        assert row["references"] == EXPERIMENT_REFERENCES == 1000
        assert row["protocols"] == list(EXPERIMENT_PROTOCOLS)
        assert row["runs"] == row["seeds"] * len(EXPERIMENT_PROTOCOLS)
        assert 0 < row["p50_ms"] <= row["p99_ms"]
        assert set(row["host"]) == {"cpu_count", "machine", "python", "system"}

    def test_reported_not_gated(self):
        current = _report()
        # Far slower than any miss, yet report-only.
        current["experiment"] = {"p50_ms": 9000.0, "p99_ms": 9999.0}
        baseline = dict(BASELINE, experiment={"p50_ms": 10.0})
        report = regression_report(current, baseline)
        assert report["ok"], report["failures"]
        p50 = _row(report, "experiment", "p50_ms")
        assert (p50["baseline"], p50["current"], p50["ok"]) == (
            10.0, 9000.0, None
        )
        assert _row(report, "experiment", "p99_ms")["current"] == 9999.0

    def test_baseline_without_the_row_accepted(self):
        current = _report()
        current["experiment"] = {"p50_ms": 8.0, "p99_ms": 12.0}
        report = regression_report(current, BASELINE)
        assert _row(report, "experiment", "p50_ms")["baseline"] is None
        # A report from before the row existed has no rows for it.
        older = regression_report(_report(), BASELINE)
        assert _row(older, "experiment", "p50_ms") is None


class TestCompiledSection:
    def test_quick_mix_matches_the_object_explorer(self):
        from repro.perf.bench import _bench_compiled

        compiled = _bench_compiled(quick=True)
        assert compiled["compiled_identical"] is True
        (row,) = compiled["rows"]
        assert row["mix"] == COMPILED_MIXES[0][0]
        assert (row["states"], row["transitions"]) == (41, 6126)
        assert row["p50_ms"] > 0

    def test_count_mismatch_fails(self):
        current = _report()
        current["compiled"] = {"compiled_identical": False, "rows": []}
        report = regression_report(current, BASELINE)
        assert report["failures"] == [
            "compiled: compiled_identical False is not == True"
        ]

    def test_committed_baseline_evaluates_new_rows_unjudged(self):
        """The committed baseline predates the compiled rows and the
        batch yardstick: a report carrying them still evaluates against
        it, every new timing row reported with no baseline and no
        verdict."""
        from pathlib import Path

        from repro.perf.bench import BENCH_FILENAME, load_baseline

        root = Path(__file__).resolve().parent.parent
        baseline = load_baseline(str(root / BENCH_FILENAME))
        current = copy.deepcopy(baseline)
        current["compiled"] = {
            "compiled_identical": True,
            "rows": [
                {"mix": label, "states": 1, "transitions": 1, "p50_ms": 9.0}
                for label, _, _ in COMPILED_MIXES
            ],
        }
        current["batch"]["scalar_vs_object"] = {"speedup": 1.5}
        report = regression_report(current, baseline)
        # The new rows add no failure to those the baseline carries
        # against itself (its own obs leg missed the budget).
        assert report["failures"] == regression_report(
            baseline, baseline
        )["failures"]
        new_rows = [
            _row(report, "compiled", f"{label} p50_ms")
            for label, _, _ in COMPILED_MIXES
        ] + [_row(report, "batch", "scalar_vs_object speedup")]
        for row in new_rows:
            assert row["baseline"] is None and row["ok"] is None, row
        assert _row(report, "compiled", "compiled_identical")["ok"] is True


def _healthy():
    """A synthetic report every gate of the table passes, also when
    judged against itself (so the host factor is 1)."""
    report = _report()
    report["explorer"] = [
        {"mix": label, "transitions_per_sec": 25000.0}
        for label, _, _ in EXPLORER_MIXES
    ]
    report["matrix"] = {"all_ok": True, "rows_identical": True,
                        "speedup": 1.0}
    report["des"] = {"rows_identical": True, "speedup": 1.0}
    report["serve_batch"] = {"backend": "numpy", "identical": True,
                             "speedup": 20.0}
    report["compiled"] = {"compiled_identical": True, "rows": []}
    return report


def _set_tps(section, value):
    for leg in section["backends"].values():
        leg["transitions_per_sec"] = value


def _place(name, gate, report, baseline, value):
    """Make ``gate`` judge exactly ``value``, touching no other gate."""
    if name == "explorer":
        label = gate.metric.split(" transitions_per_sec")[0]
        for row in report["explorer"]:
            if row["mix"] == label:
                row["transitions_per_sec"] = value * 25000.0
    elif gate.metric == "transitions_per_sec vs baseline":
        _set_tps(report["batch"], value * 1_000_000.0)
    elif gate.metric == "transitions_per_sec vs explorer":
        _set_tps(report["batch"], value * 25000.0)
        _set_tps(baseline["batch"], value * 25000.0)
    else:
        report[name][gate.metric] = value


def _edges(gate):
    """``(just inside, just past)`` the gate's budget."""
    if gate.op == "==":
        return True, False
    step = gate.budget * 1e-3
    return {
        ">=": (gate.budget, gate.budget - step),
        "<=": (gate.budget, gate.budget + step),
        "<": (gate.budget - step, gate.budget),
    }[gate.op]


GATED = [
    (section.name, gate)
    for section in SECTIONS
    for gate in section.gates
    if gate.op is not None
]


def test_healthy_report_passes_every_gate():
    report = regression_report(_healthy(), _healthy())
    assert report["ok"], report["failures"]
    judged = {(row["section"], row["metric"]) for row in report["gates"]
              if row["ok"] is not None}
    assert judged == {(name, gate.metric) for name, gate in GATED}


@pytest.mark.parametrize(
    "name, gate", GATED, ids=[f"{name}:{gate.metric}" for name, gate in GATED]
)
def test_gate_edges(name, gate):
    inside, past = _edges(gate)
    for value, ok in ((inside, True), (past, False)):
        report, baseline = _healthy(), _healthy()
        _place(name, gate, report, baseline, value)
        result = regression_report(report, baseline)
        assert _row(result, name, gate.metric)["ok"] is ok, value
        if ok:
            assert result["ok"], result["failures"]
        else:
            assert len(result["failures"]) == 1, result["failures"]
            assert result["failures"][0].startswith(
                f"{name}: {gate.metric} "
            )


def test_serve_batch_floor_applies_only_on_numpy():
    report = _healthy()
    report["serve_batch"].update(
        backend="python", speedup=MIN_SERVE_BATCH_SPEEDUP / 2
    )
    result = regression_report(report, _healthy())
    assert result["ok"], result["failures"]
    assert _row(result, "serve_batch", "speedup")["ok"] is None


@pytest.mark.parametrize("section", ["_bench_matrix", "_bench_des"])
class TestParallelLegSpeedup:
    """A matrix/DES speedup is a number only when the parallel leg ran on
    the pool; a leg the adaptive cutover kept in-process says so."""

    def test_in_process_leg_is_not_measured(self, section, monkeypatch):
        import repro.perf.pool as pool_mod
        from repro.perf import bench

        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(pool_mod, "ADAPTIVE_CUTOVER_S", 1e9)
        before = pool_mod.pool_stats()["maps"]
        result = getattr(bench, section)(True, 2)
        assert pool_mod.pool_stats()["maps"] == before
        assert result["rows_identical"] is True
        assert result["speedup"] is None
        assert "adaptive cutover" in result["speedup_note"]

    def test_pooled_leg_is_measured(self, section, force_pool):
        import repro.perf.pool as pool_mod
        from repro.perf import bench

        before = pool_mod.pool_stats()["maps"]
        result = getattr(bench, section)(True, 2)
        assert pool_mod.pool_stats()["maps"] > before
        assert result["rows_identical"] is True
        assert result["speedup"] > 0
        assert "speedup_note" not in result
