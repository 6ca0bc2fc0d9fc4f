"""The parallel execution layer: serial-vs-parallel wall time for the E1
matrix and the E2 sweep, and the explorer's single-worker throughput.

Unlike the experiment benchmarks (which reproduce a paper artifact), this
module tracks the *toolkit's* performance trajectory: the saved artifact
is the same machine-readable report ``repro bench`` writes to
``BENCH_perf.json``, so successive revisions can be diffed.  The CI
bench-smoke job runs this in quick mode and fails when any gate of the
bench table (``repro.perf.bench.SECTIONS``) fails against the committed
baseline.
"""

import json
import pathlib

from repro.perf.bench import BENCH_FILENAME, load_baseline, run_bench_suite
from repro.perf.pool import resolve_workers

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_PATH = str(REPO_ROOT / BENCH_FILENAME)


def _assert_budgets(report: dict) -> None:
    # One evaluator judges every gate: the equality checks (matrix/DES
    # rows, batch oracle agreement, coalesced payloads), the obs
    # overheads, the throughput floors and the memo-hit budget.
    regression = report["regression"]
    assert regression["ok"], "; ".join(regression["failures"])
    assert report["batch"]["backends"], "no batch backend was timed"


def test_bench_suite(benchmark, save_artifact):
    report = benchmark.pedantic(
        lambda: run_bench_suite(
            workers=resolve_workers(None),
            quick=False,
            baseline_path=BASELINE_PATH,
        ),
        rounds=1, iterations=1,
    )
    save_artifact("perf_bench", json.dumps(report, indent=2))
    _assert_budgets(report)


def test_bench_smoke_quick(save_artifact):
    """The CI bench-smoke entry point: the quick suite against the
    committed ``BENCH_perf.json`` baseline."""
    assert load_baseline(BASELINE_PATH) is not None, (
        f"committed baseline missing at {BASELINE_PATH}"
    )
    report = run_bench_suite(
        workers=resolve_workers(None), quick=True, baseline_path=BASELINE_PATH
    )
    # Saved before the verdict, so a failing run still leaves its report.
    save_artifact("perf_bench_smoke", json.dumps(report, indent=2))
    _assert_budgets(report)
    assert any(
        row["section"] == "explorer" and row["ok"] is not None
        for row in report["regression"]["gates"]
    ), "baseline shares no explorer mixes"
