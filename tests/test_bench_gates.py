"""Unit tests for the bench regression gates (synthetic reports).

The bench smoke job exercises :func:`repro.perf.bench.regression_report`
end-to-end against the committed baseline; these tests pin the gate
*logic* -- especially the serve memo-hit budget and its lower-is-better
host normalization -- on hand-built report dicts, so a gate bug fails
fast instead of surfacing as a flaky CI verdict.
"""

import copy

import pytest

from repro.perf.bench import (
    MAX_DISABLED_OVERHEAD_PCT,
    MAX_SERVE_HIT_S,
    MAX_TRACED_OVERHEAD_PCT,
    MIN_TPS_RATIO,
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


class TestServeGate:
    def test_healthy_hit_passes(self):
        report = regression_report(_report(hit_ns=2000), BASELINE)
        assert report["ok"], report["failures"]
        assert report["serve"]["current_hit_ns_p50"] == 2000
        assert report["serve"]["current_hit_ns_p99"] == 2000
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
        assert (
            report["serve"]["current_hit_ns_p50_normalized"]
            < report["serve"]["current_hit_ns_p50"]
        )

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
        assert report["serve"]["current_hit_response_us_p50"] == 3.0
        assert report["serve"]["current_hit_response_us_p99"] == (
            MAX_SERVE_HIT_S * 1e7
        )
        assert report["serve"]["baseline_hit_response_us_p50"] is None

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
        assert report["serve"]["baseline_hit_response_us_p50"] is None
        assert report["serve"]["current_hit_response_us_p99"] == 4.0
        # A report from before the field existed reads as None.
        older = regression_report(_report(), baseline)
        assert older["serve"]["current_hit_response_us_p50"] is None

    def test_report_without_serve_section_skips_gate(self):
        current = _report()
        del current["serve"]
        report = regression_report(current, BASELINE)
        assert report["ok"], report["failures"]
        assert report["serve"] is None


class TestObsGate:
    def test_disabled_over_budget_fails(self):
        report = regression_report(
            _report(disabled_pct=MAX_DISABLED_OVERHEAD_PCT + 0.5), BASELINE
        )
        assert not report["ok"]
        assert any("disabled" in f for f in report["failures"])
        assert report["obs"]["current_disabled_pct"] == (
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
        assert report["batch"]["ratio"] == 1.5
        assert report["ok"], report["failures"]

    def test_quick_rows_mismatch_reports_but_does_not_gate(self):
        current = _report(batch_tps=100_000.0)
        current["batch"]["rows"] = 256  # quick-mode population
        report = regression_report(current, BASELINE)
        batch_failures = [
            f
            for f in report["failures"]
            if "batch" in f and "regressed" in f
        ]
        assert not batch_failures
        assert report["batch"]["ratio"] is not None

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
        assert report["experiment"] == {
            "baseline_p50_ms": 10.0,
            "current_p50_ms": 9000.0,
            "current_p99_ms": 9999.0,
        }

    def test_baseline_without_the_row_accepted(self):
        current = _report()
        current["experiment"] = {"p50_ms": 8.0, "p99_ms": 12.0}
        report = regression_report(current, BASELINE)
        assert report["experiment"]["baseline_p50_ms"] is None
        # A report from before the row existed has no section.
        assert regression_report(_report(), BASELINE)["experiment"] is None
