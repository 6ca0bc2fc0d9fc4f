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
    MAX_SERVE_HIT_S,
    MIN_TPS_RATIO,
    regression_report,
)


def _report(cal=1_000_000.0, hit_s=1e-06, batch_tps=1_000_000.0):
    return {
        "calibration_ops_per_sec": cal,
        "explorer": [
            {"mix": "full-class+full-class", "transitions_per_sec": 25000.0}
        ],
        "matrix": {"speedup": 1.0},
        "des": {"speedup": 1.0},
        "obs": {"overhead_traced_pct": 10.0},
        "batch": {
            "rows": 1024,
            "verified_ok": True,
            "backends": {
                "numpy": {"transitions_per_sec": batch_tps},
            },
        },
        "serve": {"hit_s": hit_s, "miss_s": 0.03},
    }


BASELINE = _report()


class TestServeGate:
    def test_healthy_hit_passes(self):
        report = regression_report(_report(hit_s=2e-06), BASELINE)
        assert report["ok"], report["failures"]
        assert report["serve"]["current_hit_s"] == 2e-06
        assert report["budgets"]["max_serve_hit_s"] == MAX_SERVE_HIT_S

    def test_hit_over_budget_fails(self):
        report = regression_report(
            _report(hit_s=MAX_SERVE_HIT_S * 10), BASELINE
        )
        assert not report["ok"]
        assert any("serve" in f for f in report["failures"])

    def test_slow_host_discount_applies(self):
        # Host at half speed: a raw hit 1.6x over budget normalizes to
        # 0.8x of it -- the gate must credit the host, not the code.
        slow = _report(cal=500_000.0, hit_s=MAX_SERVE_HIT_S * 1.6)
        report = regression_report(slow, BASELINE)
        assert report["ok"], report["failures"]
        assert (
            report["serve"]["current_hit_s_normalized"]
            < report["serve"]["current_hit_s"]
        )

    def test_genuine_regression_survives_discount(self):
        # Over budget even after the 2x host credit: must still fail.
        slow = _report(cal=500_000.0, hit_s=MAX_SERVE_HIT_S * 4)
        report = regression_report(slow, BASELINE)
        assert not report["ok"]

    def test_report_without_serve_section_skips_gate(self):
        current = _report()
        del current["serve"]
        report = regression_report(current, BASELINE)
        assert report["ok"], report["failures"]
        assert report["serve"] is None


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
        # miss_s is reported rounded; the speedup uses the exact miss.
        assert serve["hit_speedup"] == pytest.approx(
            serve["miss_s"] / (p50 * 1e-9), rel=0.02
        )
